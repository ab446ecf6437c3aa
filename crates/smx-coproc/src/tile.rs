//! DP-tile border types (paper §5.2).
//!
//! A DP-tile is a `rows × cols` region (at most `VL × VL`) whose inputs
//! are the Δv′ values entering from the left and the Δh′ values entering
//! from the top, and whose outputs are the Δv′ leaving on the right and
//! the Δh′ leaving at the bottom — the `ΔV′`/`ΔH′` vectors of Fig. 6.
//! The engine computes the outputs in place over the inputs
//! ([`crate::SmxEngine::compute_tile`]).

/// The widest tile side of any element width (`VL` at EW = 2): the size
/// of the fixed per-tile scratch the sweep and the traceback use.
pub const MAX_VL: usize = 32;

/// Input borders of a tile in shifted differential form, unpacked from
/// the border store ([`crate::TileBorderStore::input`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TileInput {
    /// Δv′ entering each row from the left (length = tile rows).
    pub dv_left: Vec<u8>,
    /// Δh′ entering each column from the top (length = tile cols).
    pub dh_top: Vec<u8>,
}

impl TileInput {
    /// Fresh (origin-anchored) inputs for a `rows × cols` tile.
    #[must_use]
    pub fn fresh(rows: usize, cols: usize) -> TileInput {
        TileInput { dv_left: vec![0; rows], dh_top: vec![0; cols] }
    }

    /// Tile rows implied by the left border.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.dv_left.len()
    }

    /// Tile columns implied by the top border.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.dh_top.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smx_align_core::ElementWidth;

    #[test]
    fn fresh_dimensions() {
        let t = TileInput::fresh(10, 7);
        assert_eq!(t.rows(), 10);
        assert_eq!(t.cols(), 7);
        assert!(t.dv_left.iter().all(|&v| v == 0));
    }

    #[test]
    fn max_vl_covers_every_width() {
        assert_eq!(ElementWidth::ALL.iter().map(|ew| ew.vl()).max(), Some(MAX_VL));
    }
}
