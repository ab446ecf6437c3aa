//! The SMX-engine (paper §5.2): a 2D array of SMX-PEs computing one
//! `VL × VL` DP-tile per cycle, with per-EW geometry (32×32, 16×16,
//! 10×10, 8×8) and the pipeline depths of the 1 GHz design point.

use crate::tile::MAX_VL;
use smx_align_core::{AlignError, ElementWidth, ScoringScheme};
use smx_isa::config::SmxConfig;

/// Shifted substitution scores `S′ = S − I − D`, tabulated once per
/// engine so the tile kernel never re-derives them per cell.
#[derive(Debug, Clone)]
enum ShiftedScores {
    /// Edit and linear schemes: `S′` depends only on whether codes match.
    Uniform { hit: u8, miss: u8 },
    /// Substitution matrix over the 26 protein codes.
    Matrix(Box<[[u8; 26]; 26]>),
}

/// Functional model of the SMX-engine compute array.
///
/// Holds the validated configuration and scoring scheme (the hardware
/// keeps the substitution matrix in registers so ten columns can be read
/// per cycle — functionally equivalent to a scheme lookup).
#[derive(Debug, Clone)]
pub struct SmxEngine {
    ew: ElementWidth,
    scheme: ScoringScheme,
    scores: ShiftedScores,
}

impl SmxEngine {
    /// Builds an engine for `ew` and `scheme`.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors (theta overflow,
    /// non-encodable scheme).
    pub fn new(ew: ElementWidth, scheme: &ScoringScheme) -> Result<SmxEngine, AlignError> {
        let _ = SmxConfig::from_scheme(ew, scheme)?;
        // Validated above: every S′ lies in [0, theta] and theta fits EW.
        let shifted = |a: u8, b: u8| scheme.shifted_score(a, b) as u8;
        let scores = match scheme {
            ScoringScheme::Matrix { .. } => {
                let mut table = Box::new([[0u8; 26]; 26]);
                for (a, row) in (0u8..).zip(table.iter_mut()) {
                    for (b, s) in (0u8..).zip(row.iter_mut()) {
                        *s = shifted(a, b);
                    }
                }
                ShiftedScores::Matrix(table)
            }
            _ => ShiftedScores::Uniform { hit: shifted(0, 0), miss: shifted(0, 1) },
        };
        Ok(SmxEngine { ew, scheme: scheme.clone(), scores })
    }

    /// The configured element width.
    #[must_use]
    pub fn ew(&self) -> ElementWidth {
        self.ew
    }

    /// The scoring scheme.
    #[must_use]
    pub fn scheme(&self) -> &ScoringScheme {
        &self.scheme
    }

    /// Tile side length (`VL`).
    #[must_use]
    pub fn tile_dim(&self) -> usize {
        self.ew.vl()
    }

    /// Pipeline depth in cycles at the 1 GHz design point.
    #[must_use]
    pub fn pipeline_depth(&self) -> u32 {
        self.ew.engine_pipeline_depth()
    }

    /// Peak DP-elements per cycle (`VL²`): 1024 / 256 / 100 / 64.
    #[must_use]
    pub fn peak_elements_per_cycle(&self) -> u32 {
        (self.tile_dim() * self.tile_dim()) as u32
    }

    /// Computes one tile's output borders in place: on entry `dv` holds
    /// the Δv′ entering each row from the left and `dh` the Δh′ entering
    /// each column from the top; on return they hold the Δv′ leaving on
    /// the right and the Δh′ leaving at the bottom.
    ///
    /// # Errors
    ///
    /// Returns [`AlignError::Internal`] if the segment lengths disagree
    /// with the borders or exceed `VL`.
    pub fn compute_tile(
        &self,
        q_seg: &[u8],
        r_seg: &[u8],
        dv: &mut [u8],
        dh: &mut [u8],
    ) -> Result<(), AlignError> {
        self.check_tile(q_seg, r_seg, dv.len(), dh.len())?;
        self.sweep::<false>(q_seg, r_seg, dv, dh, &mut []);
        Ok(())
    }

    /// Recomputes one tile's interior for the traceback: writes the Δv′
    /// of local cell `(i, j)` to `interior[i * r_seg.len() + j]`, using
    /// the same kernel as [`compute_tile`](Self::compute_tile).
    ///
    /// # Errors
    ///
    /// Same conditions as [`compute_tile`](Self::compute_tile), and
    /// [`AlignError::Internal`] if `interior` cannot hold the tile.
    pub fn recompute_tile(
        &self,
        q_seg: &[u8],
        r_seg: &[u8],
        dv_left: &[u8],
        dh_top: &[u8],
        interior: &mut [u8],
    ) -> Result<(), AlignError> {
        self.check_tile(q_seg, r_seg, dv_left.len(), dh_top.len())?;
        let (rows, cols) = (q_seg.len(), r_seg.len());
        if interior.len() < rows * cols {
            return Err(AlignError::Internal(format!(
                "tile interior scratch {} < {rows}x{cols}",
                interior.len()
            )));
        }
        let (mut dv, mut dh) = ([0u8; MAX_VL], [0u8; MAX_VL]);
        dv[..rows].copy_from_slice(dv_left);
        dh[..cols].copy_from_slice(dh_top);
        self.sweep::<true>(q_seg, r_seg, &mut dv[..rows], &mut dh[..cols], interior);
        Ok(())
    }

    fn check_tile(
        &self,
        q_seg: &[u8],
        r_seg: &[u8],
        rows: usize,
        cols: usize,
    ) -> Result<(), AlignError> {
        let vl = self.tile_dim();
        if q_seg.len() > vl || r_seg.len() > vl {
            return Err(AlignError::Internal(format!(
                "tile segment ({}, {}) exceeds VL={vl}",
                q_seg.len(),
                r_seg.len()
            )));
        }
        if rows != q_seg.len() || cols != r_seg.len() {
            return Err(AlignError::Internal(format!(
                "tile borders ({rows}, {cols}) do not match segments ({}, {})",
                q_seg.len(),
                r_seg.len()
            )));
        }
        Ok(())
    }

    fn sweep<const KEEP: bool>(
        &self,
        q_seg: &[u8],
        r_seg: &[u8],
        dv: &mut [u8],
        dh: &mut [u8],
        interior: &mut [u8],
    ) {
        match &self.scores {
            ShiftedScores::Uniform { hit, miss } => {
                let (hit, miss) = (*hit, *miss);
                sweep::<KEEP>(
                    q_seg,
                    r_seg,
                    dv,
                    dh,
                    interior,
                    |a, b| if a == b { hit } else { miss },
                );
            }
            ShiftedScores::Matrix(table) => {
                sweep::<KEEP>(q_seg, r_seg, dv, dh, interior, |a, b| {
                    table[usize::from(a)][usize::from(b)]
                });
            }
        }
    }
}

/// The tile kernel: a row-major sweep of the saturating PE form
/// `Δv′ = sat_sub(max(S′, Δv′), Δh′)`, `Δh′ = sat_sub(max(S′, Δh′), Δv′)`,
/// which equals `pe_reference` (and so `pe_exact`) on every in-range
/// input. Δv′ flows right along a row in a register; Δh′ flows down each
/// column through `dh`. With `KEEP`, every cell's Δv′ also lands in
/// `interior` (row stride `r_seg.len()`).
#[inline(always)]
fn sweep<const KEEP: bool>(
    q_seg: &[u8],
    r_seg: &[u8],
    dv: &mut [u8],
    dh: &mut [u8],
    interior: &mut [u8],
    score: impl Fn(u8, u8) -> u8,
) {
    let cols = r_seg.len();
    for (i, (&qc, dv_row)) in q_seg.iter().zip(dv.iter_mut()).enumerate() {
        let mut v = *dv_row;
        for (j, (&rc, h)) in r_seg.iter().zip(dh.iter_mut()).enumerate() {
            let s = score(qc, rc);
            let v_out = s.max(v).saturating_sub(*h);
            *h = s.max(*h).saturating_sub(v);
            v = v_out;
            if KEEP {
                interior[i * cols + j] = v;
            }
        }
        *dv_row = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use smx_align_core::{dp, AlignmentConfig};
    use smx_diffenc::delta::DeltaBlock;

    fn engine(cfg: AlignmentConfig) -> SmxEngine {
        SmxEngine::new(cfg.element_width(), &cfg.scoring()).unwrap()
    }

    #[test]
    fn geometry_matches_paper() {
        assert_eq!(engine(AlignmentConfig::DnaEdit).peak_elements_per_cycle(), 1024);
        assert_eq!(engine(AlignmentConfig::DnaGap).peak_elements_per_cycle(), 256);
        assert_eq!(engine(AlignmentConfig::Protein).peak_elements_per_cycle(), 100);
        assert_eq!(engine(AlignmentConfig::Ascii).peak_elements_per_cycle(), 64);
    }

    #[test]
    fn full_tile_matches_golden_score() {
        let cfg = AlignmentConfig::DnaEdit;
        let e = engine(cfg);
        let q: Vec<u8> = (0..32).map(|i| (i % 4) as u8).collect();
        let r: Vec<u8> = (0..32).map(|i| (i % 3) as u8).collect();
        let (mut dv, mut dh) = ([0u8; 32], [0u8; 32]);
        e.compute_tile(&q, &r, &mut dv, &mut dh).unwrap();
        let scheme = cfg.scoring();
        // Reconstruct score from borders and compare to golden.
        let score: i32 = r.len() as i32 * scheme.gap_delete()
            + dv.iter().map(|&d| i32::from(d) + scheme.gap_insert()).sum::<i32>();
        assert_eq!(score, dp::score_only(&q, &r, &scheme));
    }

    #[test]
    fn partial_tile_supported() {
        let e = engine(AlignmentConfig::Protein);
        let q = [7u8, 4, 0];
        let r = [15u8, 0];
        let (mut dv, mut dh) = ([0u8; 3], [0u8; 2]);
        e.compute_tile(&q, &r, &mut dv, &mut dh).unwrap();
        let blk = DeltaBlock::compute(e.ew(), &q, &r, e.scheme(), &[0; 2], &[0; 3]).unwrap();
        assert_eq!(dv.to_vec(), blk.right_dv());
        assert_eq!(dh.to_vec(), blk.bottom_dh());
    }

    #[test]
    fn oversized_tile_rejected() {
        let e = engine(AlignmentConfig::Ascii); // VL = 8
        let q = vec![0u8; 9];
        let r = vec![0u8; 8];
        let (mut dv, mut dh) = (vec![0u8; 9], vec![0u8; 8]);
        assert!(e.compute_tile(&q, &r, &mut dv, &mut dh).is_err());
        let mut interior = vec![0u8; 72];
        assert!(e.recompute_tile(&q, &r, &dv, &dh, &mut interior).is_err());
    }

    #[test]
    fn mismatched_borders_rejected() {
        let e = engine(AlignmentConfig::DnaEdit);
        let q = vec![0u8; 4];
        let r = vec![0u8; 4];
        let (mut dv, mut dh) = (vec![0u8; 3], vec![0u8; 4]);
        assert!(e.compute_tile(&q, &r, &mut dv, &mut dh).is_err());
        let mut small = [0u8; 15];
        assert!(e.recompute_tile(&q, &r, &[0; 4], &dh, &mut small).is_err(), "scratch too small");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        /// The in-place kernel's output borders and the traceback
        /// recompute's interior equal the bit-exact `pe_exact` oracle, for
        /// every config, full and partial tiles, and borders drawn over
        /// the whole EW-bit range.
        #[test]
        fn kernel_matches_pe_exact_oracle(
            rows in 1usize..=32,
            cols in 1usize..=32,
            codes in proptest::collection::vec(0u8..=255, 64),
            borders in proptest::collection::vec(0u8..=255, 64),
        ) {
            for cfg in AlignmentConfig::ALL {
                let e = engine(cfg);
                let vl = e.tile_dim();
                let (rows, cols) = (1 + (rows - 1) % vl, 1 + (cols - 1) % vl);
                let card = cfg.alphabet().cardinality() as u8;
                let lane = e.ew().max_value() as u8;
                let q: Vec<u8> = codes[..rows].iter().map(|c| c % card).collect();
                let r: Vec<u8> = codes[32..32 + cols].iter().map(|c| c % card).collect();
                let dv_left: Vec<u8> = borders[..rows].iter().map(|b| b & lane).collect();
                let dh_top: Vec<u8> = borders[32..32 + cols].iter().map(|b| b & lane).collect();
                let oracle =
                    DeltaBlock::compute(e.ew(), &q, &r, e.scheme(), &dh_top, &dv_left).unwrap();

                let (mut dv, mut dh) = (dv_left.clone(), dh_top.clone());
                e.compute_tile(&q, &r, &mut dv, &mut dh).unwrap();
                prop_assert_eq!(dv, oracle.right_dv(), "{cfg} {rows}x{cols}: right Δv′");
                prop_assert_eq!(dh, oracle.bottom_dh(), "{cfg} {rows}x{cols}: bottom Δh′");

                let mut interior = [0u8; MAX_VL * MAX_VL];
                e.recompute_tile(&q, &r, &dv_left, &dh_top, &mut interior).unwrap();
                for i in 0..rows {
                    for j in 0..cols {
                        prop_assert_eq!(interior[i * cols + j], oracle.dv(i, j), "{cfg} ({i}, {j})");
                    }
                }
            }
        }
    }
}
