//! Golden-model dynamic programming: Needleman–Wunsch with a 2-bit
//! traceback, and a linear-memory score-only variant (paper §2.1, Eq. 1–2).
//!
//! These are deliberately simple reference implementations; every
//! accelerated engine in the workspace is validated against them. The
//! global traceback tie-break is **diagonal ≻ up (insert) ≻ left
//! (delete)** and is shared by all engines so CIGARs are directly
//! comparable.
//!
//! [`align_codes`] never holds the score matrix: it keeps two rolling
//! score rows and records, per cell, the move the traceback takes there
//! in 2 bits, so an `m × n` alignment needs `(m+1)·⌈(n+1)/4⌉ + O(n)`
//! bytes instead of `4·(m+1)·(n+1)` (the paper's §5 memory argument,
//! applied to the golden model). The dense [`full_matrix`] remains as the
//! matrix oracle the tiled engines' tests compare against.

use crate::cigar::{Alignment, Cigar, Op};
use crate::error::AlignError;
use crate::scoring::ScoringScheme;
use crate::sequence::Sequence;

/// A dense `(m+1) × (n+1)` DP matrix of absolute scores.
///
/// Row `i` corresponds to having consumed `i` query symbols; column `j` to
/// `j` reference symbols.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DpMatrix {
    rows: usize,
    cols: usize,
    data: Vec<i32>,
}

impl DpMatrix {
    /// Number of rows (`query length + 1`).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (`reference length + 1`).
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Value at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows` or `j >= cols`.
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> i32 {
        assert!(i < self.rows && j < self.cols, "({i}, {j}) out of bounds");
        self.data[i * self.cols + j]
    }

    fn set(&mut self, i: usize, j: usize, v: i32) {
        self.data[i * self.cols + j] = v;
    }

    /// The bottom-right element: the optimal global alignment score.
    #[must_use]
    pub fn final_score(&self) -> i32 {
        self.data[self.rows * self.cols - 1]
    }
}

/// Computes the full DP matrix for `query` × `reference` codes.
///
/// Complexity: `O(m·n)` time and `4·(m+1)·(n+1)` bytes. This is the
/// matrix oracle for engines that reconstruct absolute values (tile
/// borders, differential encodings); alignments should use
/// [`align_codes`], which produces the same result without the matrix.
#[must_use]
pub fn full_matrix(query: &[u8], reference: &[u8], scheme: &ScoringScheme) -> DpMatrix {
    let (m, n) = (query.len(), reference.len());
    let mut dp = DpMatrix { rows: m + 1, cols: n + 1, data: vec![0; (m + 1) * (n + 1)] };
    let (gi, gd) = (scheme.gap_insert(), scheme.gap_delete());
    // Saturating arithmetic throughout: pathological lengths × penalties
    // (`i as i32 * gi` and long accumulation chains) must clamp instead of
    // wrapping, so extreme inputs stay well-defined.
    for i in 1..=m {
        dp.set(i, 0, (i as i32).saturating_mul(gi));
    }
    for j in 1..=n {
        dp.set(0, j, (j as i32).saturating_mul(gd));
    }
    for i in 1..=m {
        for j in 1..=n {
            let diag =
                dp.get(i - 1, j - 1).saturating_add(scheme.score(query[i - 1], reference[j - 1]));
            let up = dp.get(i - 1, j).saturating_add(gi);
            let left = dp.get(i, j - 1).saturating_add(gd);
            dp.set(i, j, diag.max(up).max(left));
        }
    }
    dp
}

/// Computes only the optimal score, using `O(n)` memory.
#[must_use]
pub fn score_only(query: &[u8], reference: &[u8], scheme: &ScoringScheme) -> i32 {
    last_row(query, reference, scheme)[reference.len()]
}

/// Computes the last DP row (`M_{m, 0..=n}`) in `O(n)` memory.
///
/// This is the primitive Hirschberg's algorithm is built from.
#[must_use]
pub fn last_row(query: &[u8], reference: &[u8], scheme: &ScoringScheme) -> Vec<i32> {
    let n = reference.len();
    let (gi, gd) = (scheme.gap_insert(), scheme.gap_delete());
    let mut row: Vec<i32> = (0..=n as i32).map(|j| j.saturating_mul(gd)).collect();
    for (i, &q) in query.iter().enumerate() {
        let mut prev_diag = row[0];
        row[0] = (i as i32 + 1).saturating_mul(gi);
        for j in 1..=n {
            let diag = prev_diag.saturating_add(scheme.score(q, reference[j - 1]));
            let up = row[j].saturating_add(gi);
            let left = row[j - 1].saturating_add(gd);
            prev_diag = row[j];
            row[j] = diag.max(up).max(left);
        }
    }
    row
}

/// The last-needle-row scoring contract shared by the streaming kernels:
/// the maximum over a final DP row and the **leftmost** column attaining
/// it (the natural prefix-alignment end position).
///
/// # Panics
///
/// Panics if `row` is empty (a DP row always has `n + 1` entries).
#[must_use]
pub fn last_row_best(row: &[i32]) -> (i32, usize) {
    assert!(!row.is_empty(), "a DP row has at least the border column");
    let mut best = row[0];
    let mut end = 0;
    for (j, &v) in row.iter().enumerate().skip(1) {
        if v > best {
            best = v;
            end = j;
        }
    }
    (best, end)
}

/// Aligns two sequences with the golden model, returning score + CIGAR.
///
/// # Errors
///
/// Returns [`AlignError::AlphabetMismatch`] if the sequences use different
/// alphabets and [`AlignError::EmptySequence`] if either is empty.
pub fn align(
    query: &Sequence,
    reference: &Sequence,
    scheme: &ScoringScheme,
) -> Result<Alignment, AlignError> {
    if query.alphabet() != reference.alphabet() {
        return Err(AlignError::AlphabetMismatch);
    }
    if query.is_empty() || reference.is_empty() {
        return Err(AlignError::EmptySequence);
    }
    Ok(align_codes(query.codes(), reference.codes(), scheme))
}

/// Aligns raw code slices (no validation) with the golden model.
#[must_use]
pub fn align_codes(query: &[u8], reference: &[u8], scheme: &ScoringScheme) -> Alignment {
    align_codes_checked(query, reference, scheme, &mut || Ok(()))
        .expect("an infallible check cannot abort the DP")
}

/// Rows computed between cooperative `check` calls in
/// [`align_codes_checked`] — the host-side analogue of the coprocessor's
/// tile-boundary granularity.
const CHECK_INTERVAL_ROWS: usize = 64;

/// Traceback moves, numbered in tie-break order (diagonal ≻ up ≻ left).
const DIAG: u8 = 0;
const UP: u8 = 1;
const LEFT: u8 = 2;
/// A move-matrix byte holding [`LEFT`] in all four 2-bit lanes (row 0).
const ALL_LEFT: u8 = LEFT * 0b0101_0101;

/// [`align_codes`] with a cooperative abort point every
/// [`CHECK_INTERVAL_ROWS`] rows: `check`'s error (typically a
/// cancellation or deadline) aborts the computation and produces no
/// partial result. This is what makes host-side recomputation honor the
/// same deadline budget as the accelerated paths instead of running to
/// completion regardless.
///
/// The fill keeps two rolling score rows and stores, for every cell, the
/// first optimal predecessor in tie-break order as a 2-bit move, four
/// per byte in row-aligned rows of `⌈(n+1)/4⌉` bytes. The traceback then
/// follows the moves without rescoring; since each move is exactly the
/// branch a rescoring traceback over [`full_matrix`] would take, score
/// and CIGAR are identical to it.
///
/// # Errors
///
/// Whatever `check` returns.
pub fn align_codes_checked(
    query: &[u8],
    reference: &[u8],
    scheme: &ScoringScheme,
    check: &mut dyn FnMut() -> Result<(), AlignError>,
) -> Result<Alignment, AlignError> {
    let (m, n) = (query.len(), reference.len());
    let (gi, gd) = (scheme.gap_insert(), scheme.gap_delete());
    let stride = (n + 1).div_ceil(4);
    let mut moves = vec![0u8; (m + 1) * stride];
    // Row 0 is all deletions (its `(0, 0)` lane is never read).
    moves[..stride].fill(ALL_LEFT);
    // Saturating arithmetic throughout, exactly as in `full_matrix`.
    let mut prev: Vec<i32> = (0..=n as i32).map(|j| j.saturating_mul(gd)).collect();
    let mut row = vec![0i32; n + 1];
    for (i, (&q, out)) in query.iter().zip(moves.chunks_exact_mut(stride).skip(1)).enumerate() {
        if (i + 1) % CHECK_INTERVAL_ROWS == 0 {
            check()?;
        }
        row[0] = (i as i32 + 1).saturating_mul(gi);
        // Column 0 is always an insertion. Moves collect in a register
        // and are stored once per full byte.
        let mut packed = UP;
        let mut here = row[0];
        let cells = reference.iter().zip(prev.windows(2)).zip(&mut row[1..]);
        for (j, ((&r, above), cell)) in (1..).zip(cells) {
            let diag = above[0].saturating_add(scheme.score(q, r));
            let up = above[1].saturating_add(gi);
            let left = here.saturating_add(gd);
            here = diag.max(up).max(left);
            *cell = here;
            // DIAG if the diagonal attains the max, else UP if up does,
            // else LEFT — computed without data-dependent branches.
            let not_diag = here != diag;
            let mv = u8::from(not_diag) + u8::from(not_diag & (here != up));
            packed |= mv << (2 * (j % 4));
            if j % 4 == 3 {
                out[j / 4] = packed;
                packed = 0;
            }
        }
        if n % 4 != 3 {
            out[n / 4] = packed;
        }
        std::mem::swap(&mut prev, &mut row);
    }
    let score = prev[n];

    let mut cigar = Cigar::new();
    let (mut i, mut j) = (m, n);
    while i > 0 || j > 0 {
        match (moves[i * stride + j / 4] >> (2 * (j % 4))) & 0b11 {
            DIAG => {
                cigar.push(if query[i - 1] == reference[j - 1] { Op::Match } else { Op::Mismatch });
                i -= 1;
                j -= 1;
            }
            UP => {
                cigar.push(Op::Insert);
                i -= 1;
            }
            _ => {
                cigar.push(Op::Delete);
                j -= 1;
            }
        }
    }
    cigar.reverse();
    Ok(Alignment { score, cigar })
}

/// The edit distance between two code slices (a convenience built on the
/// edit scheme: `distance = −score`).
#[must_use]
pub fn edit_distance(a: &[u8], b: &[u8]) -> u32 {
    (-score_only(a, b, &ScoringScheme::edit())) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::submat::SubstMatrix;
    use proptest::prelude::*;

    /// The identity oracle: the rescoring traceback through a dense
    /// [`full_matrix`], taking the first predecessor (diagonal ≻ up ≻
    /// left) whose score plus the step's cost reproduces the cell.
    fn traceback(dp: &DpMatrix, query: &[u8], reference: &[u8], scheme: &ScoringScheme) -> Cigar {
        let (gi, gd) = (scheme.gap_insert(), scheme.gap_delete());
        let mut i = query.len();
        let mut j = reference.len();
        let mut cigar = Cigar::new();
        while i > 0 || j > 0 {
            let here = dp.get(i, j);
            if i > 0
                && j > 0
                && here
                    == dp
                        .get(i - 1, j - 1)
                        .saturating_add(scheme.score(query[i - 1], reference[j - 1]))
            {
                cigar.push(if query[i - 1] == reference[j - 1] { Op::Match } else { Op::Mismatch });
                i -= 1;
                j -= 1;
            } else if i > 0 && here == dp.get(i - 1, j).saturating_add(gi) {
                cigar.push(Op::Insert);
                i -= 1;
            } else {
                assert!(
                    j > 0 && here == dp.get(i, j - 1).saturating_add(gd),
                    "broken traceback at ({i},{j})"
                );
                cigar.push(Op::Delete);
                j -= 1;
            }
        }
        cigar.reverse();
        cigar
    }

    /// Asserts `align_codes` is byte-identical to the matrix oracle.
    fn assert_matches_oracle(q: &[u8], r: &[u8], scheme: &ScoringScheme) {
        let dp = full_matrix(q, r, scheme);
        let a = align_codes(q, r, scheme);
        assert_eq!(a.score, dp.final_score(), "score, {}x{} {scheme:?}", q.len(), r.len());
        assert_eq!(
            a.cigar,
            traceback(&dp, q, r, scheme),
            "CIGAR, {}x{} {scheme:?}",
            q.len(),
            r.len()
        );
    }

    /// Edit, linear (symmetric and asymmetric) and BLOSUM schemes, plus
    /// the extreme-penalty shapes whose border init and accumulation
    /// chains saturate at `i32::MIN` / `i32::MAX`.
    fn oracle_schemes() -> Vec<ScoringScheme> {
        vec![
            ScoringScheme::edit(),
            ScoringScheme::linear(2, -4, -4).unwrap(),
            ScoringScheme::linear_asym(1, -1, -2, -3).unwrap(),
            ScoringScheme::matrix(SubstMatrix::blosum62(), -4).unwrap(),
            ScoringScheme::linear(1, -1_000_000_000, -1_000_000_000).unwrap(),
            ScoringScheme::linear_asym(i32::MAX, i32::MIN, -1, -1_000_000_000).unwrap(),
        ]
    }

    /// Codes valid for `scheme`: the 26-letter protein range for
    /// matrix schemes, a 4-letter DNA range otherwise (more ties).
    fn codes(raw: &[u8], scheme: &ScoringScheme) -> Vec<u8> {
        let k = if scheme.uses_matrix() { 26 } else { 4 };
        raw.iter().map(|&c| c % k).collect()
    }

    fn dna(s: &str) -> Sequence {
        Sequence::from_text(Alphabet::Dna2, s).unwrap()
    }

    #[test]
    fn identical_sequences_score_zero_edit() {
        let s = dna("ACGTACGT");
        let a = align(&s, &s, &ScoringScheme::edit()).unwrap();
        assert_eq!(a.score, 0);
        assert_eq!(a.cigar.to_string(), "8=");
    }

    #[test]
    fn single_substitution() {
        let a = align(&dna("ACGT"), &dna("AGGT"), &ScoringScheme::edit()).unwrap();
        assert_eq!(a.score, -1);
        assert_eq!(a.cigar.to_string(), "1=1X2=");
    }

    #[test]
    fn single_insertion() {
        let a = align(&dna("ACGGT"), &dna("ACGT"), &ScoringScheme::edit()).unwrap();
        assert_eq!(a.score, -1);
        assert_eq!(a.cigar.query_len(), 5);
        assert_eq!(a.cigar.reference_len(), 4);
    }

    #[test]
    fn empty_rejected() {
        let e = Sequence::from_text(Alphabet::Dna2, "").unwrap();
        assert!(matches!(
            align(&e, &dna("A"), &ScoringScheme::edit()),
            Err(AlignError::EmptySequence)
        ));
    }

    #[test]
    fn alphabet_mismatch_rejected() {
        let p = Sequence::from_text(Alphabet::Protein, "ACG").unwrap();
        assert!(matches!(
            align(&p, &dna("ACG"), &ScoringScheme::edit()),
            Err(AlignError::AlphabetMismatch)
        ));
    }

    #[test]
    fn edit_distance_known_pairs() {
        let a = Sequence::from_text(Alphabet::Ascii, "kitten").unwrap();
        let b = Sequence::from_text(Alphabet::Ascii, "sitting").unwrap();
        assert_eq!(edit_distance(a.codes(), b.codes()), 3);
        assert_eq!(edit_distance(b.codes(), a.codes()), 3);
        assert_eq!(edit_distance(a.codes(), a.codes()), 0);
    }

    #[test]
    fn score_only_matches_full_matrix() {
        let q = dna("GATTACAGATTACA");
        let r = dna("GACTATAGATCAA");
        for scheme in [ScoringScheme::edit(), ScoringScheme::linear(2, -4, -4).unwrap()] {
            let dp = full_matrix(q.codes(), r.codes(), &scheme);
            assert_eq!(dp.final_score(), score_only(q.codes(), r.codes(), &scheme));
        }
    }

    #[test]
    fn last_row_matches_full_matrix() {
        let q = dna("ACGTAC");
        let r = dna("AGTACC");
        let scheme = ScoringScheme::linear(1, -2, -2).unwrap();
        let dp = full_matrix(q.codes(), r.codes(), &scheme);
        let row = last_row(q.codes(), r.codes(), &scheme);
        for (j, &v) in row.iter().enumerate() {
            assert_eq!(v, dp.get(q.len(), j), "column {j}");
        }
    }

    #[test]
    fn traceback_rescores_to_optimal() {
        let q = dna("GATTACA");
        let r = dna("GCATGCT");
        for scheme in [ScoringScheme::edit(), ScoringScheme::linear(3, -2, -3).unwrap()] {
            let a = align(&q, &r, &scheme).unwrap();
            a.verify(q.codes(), r.codes(), &scheme).unwrap();
        }
    }

    #[test]
    fn protein_alignment_with_blosum() {
        let scheme = ScoringScheme::matrix(SubstMatrix::blosum50(), -5).unwrap();
        let q = Sequence::from_text(Alphabet::Protein, "HEAGAWGHEE").unwrap();
        let r = Sequence::from_text(Alphabet::Protein, "PAWHEAE").unwrap();
        let a = align(&q, &r, &scheme).unwrap();
        a.verify(q.codes(), r.codes(), &scheme).unwrap();
        // Global alignment with strong gaps; score must match re-derivation.
        assert_eq!(a.score, full_matrix(q.codes(), r.codes(), &scheme).final_score());
    }

    #[test]
    fn paper_figure3_example() {
        // Figure 3 of the paper aligns two short proteins under BLOSUM62
        // with I = D = -4. We verify our golden model reproduces an optimal
        // score consistent with its own traceback (exact DP-matrix values in
        // the figure depend on its matrix variant).
        let scheme = ScoringScheme::matrix(SubstMatrix::blosum62(), -4).unwrap();
        let q = Sequence::from_text(Alphabet::Protein, "MKVLAA").unwrap();
        let r = Sequence::from_text(Alphabet::Protein, "MKWLSA").unwrap();
        let a = align(&q, &r, &scheme).unwrap();
        a.verify(q.codes(), r.codes(), &scheme).unwrap();
    }

    #[test]
    fn boundary_rows_follow_gap_penalties() {
        let scheme = ScoringScheme::linear_asym(1, -1, -2, -3).unwrap();
        let dp = full_matrix(&[0, 1], &[0, 1, 2], &scheme);
        assert_eq!(dp.get(1, 0), -2);
        assert_eq!(dp.get(2, 0), -4);
        assert_eq!(dp.get(0, 1), -3);
        assert_eq!(dp.get(0, 3), -9);
    }

    #[test]
    fn extreme_penalties_and_lengths_saturate_instead_of_overflowing() {
        // 5000 rows x a -1e6 gap penalty drives the border init past
        // i32::MIN (-5e9); without saturating arithmetic this wraps (and
        // panics in debug builds). The score must stay well-defined and
        // the three entry points must agree with each other.
        let scheme = ScoringScheme::linear(1, -1_000_000_000, -1_000_000_000).unwrap();
        let q = vec![0u8; 5000];
        let r = vec![1u8; 4000];
        let dp = full_matrix(&q, &r, &scheme);
        assert_eq!(dp.get(5000, 0), i32::MIN, "border init must saturate");
        assert_eq!(dp.final_score(), score_only(&q, &r, &scheme));
        let row = last_row(&q, &r, &scheme);
        assert_eq!(row[r.len()], dp.final_score());
        // The traceback must still terminate and cover both sequences.
        let a = align_codes(&q, &r, &scheme);
        assert_eq!(a.score, dp.final_score());
        assert_eq!(a.cigar.query_len(), q.len());
        assert_eq!(a.cigar.reference_len(), r.len());
    }

    #[test]
    fn degenerate_inputs_are_well_defined() {
        let scheme = ScoringScheme::linear(1, -1, -2).unwrap();
        // Empty query: the whole reference is deleted.
        let a = align_codes(&[], &[0, 1, 2], &scheme);
        assert_eq!(a.score, 3 * scheme.gap_delete());
        assert_eq!(a.cigar.to_string(), "3D");
        a.verify(&[], &[0, 1, 2], &scheme).unwrap();
        // Empty reference: the whole query is inserted.
        let a = align_codes(&[0, 1], &[], &scheme);
        assert_eq!(a.score, 2 * scheme.gap_insert());
        assert_eq!(a.cigar.to_string(), "2I");
        // Both empty: zero score, empty CIGAR.
        let a = align_codes(&[], &[], &scheme);
        assert_eq!(a.score, 0);
        assert!(a.cigar.runs().is_empty());
        // Single symbols.
        let a = align_codes(&[1], &[1], &scheme);
        assert_eq!(a.score, 1);
        assert_eq!(a.cigar.to_string(), "1=");
        let a = align_codes(&[1], &[2], &scheme);
        a.verify(&[1], &[2], &scheme).unwrap();
        // query == reference: all matches, perfect score.
        let q: Vec<u8> = (0..64).map(|i| (i % 4) as u8).collect();
        let a = align_codes(&q, &q, &scheme);
        assert_eq!(a.score, 64);
        assert_eq!(a.cigar.to_string(), "64=");
    }

    #[test]
    fn dp_matrix_get_bounds() {
        let dp = full_matrix(&[0], &[0], &ScoringScheme::edit());
        assert_eq!(dp.rows(), 2);
        assert_eq!(dp.cols(), 2);
        let r = std::panic::catch_unwind(|| dp.get(2, 0));
        assert!(r.is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn align_codes_is_byte_identical_to_the_matrix_oracle(
            q in proptest::collection::vec(0u8..26, 0..=300),
            r in proptest::collection::vec(0u8..26, 0..=300),
        ) {
            for scheme in oracle_schemes() {
                assert_matches_oracle(&codes(&q, &scheme), &codes(&r, &scheme), &scheme);
            }
        }
    }

    #[test]
    fn every_packing_edge_and_empty_side_matches_the_oracle() {
        // Every `(n+1) mod 4` (and `(m+1) mod 4`) residue, empty sides
        // included, on small shapes and at the 300-symbol top of the
        // proptest range.
        let seq: Vec<u8> = (0..300u32).map(|k| (k * 7 % 11 + k / 13) as u8).collect();
        let shapes = (0..=9).flat_map(|m| (0..=9).map(move |n| (m, n)));
        for (m, n) in shapes.chain((296..=300).map(|n| (300 - n % 7, n))) {
            for scheme in oracle_schemes() {
                let q = codes(&seq[..m], &scheme);
                let r = codes(&seq[seq.len() - n..], &scheme);
                assert_matches_oracle(&q, &r, &scheme);
            }
        }
    }

    #[test]
    fn align_codes_checked_polls_every_64_rows_and_returns_the_error_unchanged() {
        let scheme = ScoringScheme::edit();
        let r = vec![1u8; 9];
        for m in [0, 1, 63, 64, 65, 127, 128, 200] {
            let q = vec![0u8; m];
            let mut calls = 0;
            let a = align_codes_checked(&q, &r, &scheme, &mut || {
                calls += 1;
                Ok(())
            })
            .unwrap();
            assert_eq!(calls, m / CHECK_INTERVAL_ROWS, "m = {m}");
            assert_eq!(a, align_codes(&q, &r, &scheme));
        }
        let err = AlignError::DeadlineExceeded { budget_ms: 5 };
        let q = vec![0u8; 300];
        let mut calls = 0;
        let got = align_codes_checked(&q, &r, &scheme, &mut || {
            calls += 1;
            if calls == 2 {
                Err(err.clone())
            } else {
                Ok(())
            }
        });
        assert_eq!(got, Err(err));
        assert_eq!(calls, 2, "the DP stops at the first error");
    }
}
