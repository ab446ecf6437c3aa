//! Row-streaming scalar reference kernel.
//!
//! Mirrors [`smx_align_core::dp::last_row`] operation-for-operation —
//! same rolling-row recurrence, same saturating arithmetic, same border
//! initialization — with two lockstep `u32` companions per cell that
//! count matches and query-insertions along the winning path. The winner
//! selection uses the golden traceback tie-break (diagonal ≻ up ≻ left),
//! so the counts reconstruct exactly the path the golden
//! [`smx_align_core::dp::align_codes`] traceback walks, without storing
//! any per-cell state.
//!
//! Saturating arithmetic makes this kernel total: it is the fallback for
//! schemes whose magnitudes fail the wrapping kernel's no-overflow bound.

use super::{finish, ScoreProfile, SimdWorkspace};
use smx_align_core::{dp, ScoringScheme};

/// Streaming score+stats over one rolling row. Caller guarantees both
/// slices are non-empty.
pub(crate) fn profile(
    query: &[u8],
    reference: &[u8],
    scheme: &ScoringScheme,
    ws: &mut SimdWorkspace,
) -> ScoreProfile {
    let (m, n) = (query.len(), reference.len());
    let (gi, gd) = (scheme.gap_insert(), scheme.gap_delete());

    ws.row.clear();
    ws.row.extend((0..=n as i32).map(|j| j.saturating_mul(gd)));
    ws.row_cm.clear();
    ws.row_cm.resize(n + 1, 0);
    ws.row_ci.clear();
    ws.row_ci.resize(n + 1, 0);

    for (i, &qc) in query.iter().enumerate() {
        let mut prev_diag = ws.row[0];
        let mut prev_cm = ws.row_cm[0];
        let mut prev_ci = ws.row_ci[0];
        ws.row[0] = (i as i32 + 1).saturating_mul(gi);
        ws.row_cm[0] = 0;
        ws.row_ci[0] = i as u32 + 1;
        for j in 1..=n {
            let rc = reference[j - 1];
            let diag = prev_diag.saturating_add(scheme.score(qc, rc));
            let up = ws.row[j].saturating_add(gi);
            let left = ws.row[j - 1].saturating_add(gd);
            let best = diag.max(up).max(left);
            // Golden tie-break: diagonal ≻ up (insert) ≻ left (delete).
            let (cm, ci) = if diag >= up && diag >= left {
                (prev_cm.wrapping_add(u32::from(qc == rc)), prev_ci)
            } else if up >= left {
                (ws.row_cm[j], ws.row_ci[j].wrapping_add(1))
            } else {
                (ws.row_cm[j - 1], ws.row_ci[j - 1])
            };
            prev_diag = ws.row[j];
            prev_cm = ws.row_cm[j];
            prev_ci = ws.row_ci[j];
            ws.row[j] = best;
            ws.row_cm[j] = cm;
            ws.row_ci[j] = ci;
        }
    }

    let (best_score, best_end) = dp::last_row_best(&ws.row);
    finish(m, n, ws.row[n], ws.row_cm[n], ws.row_ci[n], best_score, best_end)
}
