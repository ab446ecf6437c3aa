//! Shared helpers for the SMX benchmark harness.
//!
//! Each binary in `src/bin` regenerates one table or figure from the
//! paper's evaluation (see DESIGN.md §3 for the experiment index). Run
//! them with `cargo run -p smx-bench --release --bin <name>`.

use std::fmt::Display;

use smx::align::{AlignError, AlignmentConfig};
use smx::coproc::faults::{FaultPlan, RecoveryPolicy};
use smx::server::proto::Request;
use smx::SmxDevice;

/// Prints a section header.
pub fn header(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Prints one row of a fixed-width table.
pub fn row(cells: &[&dyn Display], widths: &[usize]) {
    let mut line = String::new();
    for (c, w) in cells.iter().zip(widths) {
        line.push_str(&format!("{:>width$}  ", c, width = w));
    }
    println!("{}", line.trim_end());
}

/// Formats a ratio as `Nx`.
#[must_use]
pub fn ratio(a: f64, b: f64) -> String {
    format!("{:.1}x", a / b.max(1e-12))
}

/// Formats a fraction as a percentage.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Opens a CSV artifact file for a harness when `SMX_BENCH_CSV` names a
/// directory, so results can be post-processed; returns `None` (and the
/// harness stays print-only) otherwise.
#[must_use]
pub fn csv_artifact(name: &str) -> Option<std::fs::File> {
    let dir = std::env::var("SMX_BENCH_CSV").ok()?;
    std::fs::create_dir_all(&dir).ok()?;
    let path = std::path::Path::new(&dir).join(format!("{name}.csv"));
    std::fs::File::create(path).ok()
}

/// Writes one CSV row (no quoting — harness values are plain tokens).
pub fn csv_row(file: &mut Option<std::fs::File>, cells: &[&dyn Display]) {
    use std::io::Write;
    if let Some(f) = file {
        let line: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        let _ = writeln!(f, "{}", line.join(","));
    }
}

/// Whether the harness should run in quick mode (smaller instances),
/// controlled by the `SMX_BENCH_QUICK` environment variable.
#[must_use]
pub fn quick_mode() -> bool {
    std::env::var("SMX_BENCH_QUICK").is_ok_and(|v| v != "0")
}

/// Scales an instance size down in quick mode.
#[must_use]
pub fn scaled(full: usize, quick: usize) -> usize {
    if quick_mode() {
        quick
    } else {
        full
    }
}

/// The `p`-quantile of an ascending-sorted sample, by nearest rank;
/// `p` is clamped to `[0, 1]` and an empty sample gives `NaN`.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p.clamp(0.0, 1.0)).round() as usize;
    sorted.get(idx).copied().unwrap_or(f64::NAN)
}

/// One exponential inter-arrival gap, in seconds, of a Poisson stream
/// at `rate` events per second (open-loop load generation).
pub fn exponential_gap(rng: &mut impl rand::Rng, rate: f64) -> f64 {
    -rng.gen_range(f64::EPSILON..1.0).ln() / rate
}

/// Alignment configuration of the framed-TCP storms (`server_storm`,
/// `chaos_storm`).
pub const STORM_CONFIG: AlignmentConfig = AlignmentConfig::DnaEdit;

/// Length of every storm pair, in bases.
pub const STORM_PAIR_LEN: usize = 64;

/// The storms' template device. Device fault injection stays on (tile
/// fault rate 5e-4, seed 42) underneath whatever the storm attacks:
/// transient tile faults must ride through retry and recovery, never to
/// a client, and compose with host-path faults without breaking
/// byte-identity.
///
/// # Errors
///
/// Propagates device construction errors.
pub fn storm_device() -> Result<SmxDevice, AlignError> {
    let mut dev = SmxDevice::new(STORM_CONFIG, 2)?;
    dev.enable_fault_injection(FaultPlan::new(42, 5e-4), RecoveryPolicy::default());
    Ok(dev)
}

/// Storm pair `id`: a random [`STORM_PAIR_LEN`]-base DNA query and a
/// reference that sets one random position to `T`.
pub fn storm_pair(rng: &mut impl rand::Rng, id: usize) -> Request {
    const BASES: [char; 4] = ['A', 'C', 'G', 'T'];
    let query: String = (0..STORM_PAIR_LEN).map(|_| BASES[rng.gen_range(0..4usize)]).collect();
    let mut reference = query.clone();
    let i = rng.gen_range(0..STORM_PAIR_LEN);
    reference.replace_range(i..=i, "T");
    Request::Pair { id, query, reference }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_formats() {
        assert_eq!(ratio(10.0, 4.0), "2.5x");
        assert_eq!(ratio(1.0, 0.0), format!("{:.1}x", 1.0 / 1e-12));
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.125), "12.5%");
        assert_eq!(pct(1.0), "100.0%");
    }

    #[test]
    fn scaled_honours_quick_mode() {
        // Quick mode is driven by the environment; in a test process the
        // variable is normally unset, so `scaled` returns the full size.
        if std::env::var("SMX_BENCH_QUICK").is_err() {
            assert_eq!(scaled(1000, 10), 1000);
        }
    }

    #[test]
    fn csv_artifact_disabled_without_env() {
        if std::env::var("SMX_BENCH_CSV").is_err() {
            assert!(csv_artifact("unit-test").is_none());
            let mut none = None;
            csv_row(&mut none, &[&1, &2]); // must be a no-op
        }
    }

    #[test]
    fn percentile_of_an_empty_sample_is_nan() {
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn percentile_endpoints_and_clamping() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 0.5), 3.0);
        assert_eq!(percentile(&sorted, 1.0), 5.0);
        assert_eq!(percentile(&sorted, 1.5), 5.0, "p > 1 clamps to the maximum");
        assert_eq!(percentile(&sorted, -0.5), 1.0, "p < 0 clamps to the minimum");
    }

    #[test]
    fn storm_pairs_are_seeded_and_differ_in_at_most_one_base() {
        use rand::SeedableRng;
        let draw = || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(7);
            (0..32).map(|id| storm_pair(&mut rng, id)).collect::<Vec<_>>()
        };
        let pairs = draw();
        assert_eq!(pairs, draw(), "same seed, same workload");
        for (id, req) in pairs.iter().enumerate() {
            let Request::Pair { id: got, query, reference } = req else {
                panic!("storm_pair built a non-pair request: {req:?}");
            };
            assert_eq!(*got, id);
            assert_eq!((query.len(), reference.len()), (STORM_PAIR_LEN, STORM_PAIR_LEN));
            let diffs = query.chars().zip(reference.chars()).filter(|(a, b)| a != b).count();
            assert!(diffs <= 1, "pair {id} differs in {diffs} bases");
        }
        storm_device().expect("storm device builds");
    }

    #[test]
    fn exponential_gaps_are_positive_with_mean_one_over_rate() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let n = 20_000;
        let gaps: Vec<f64> = (0..n).map(|_| exponential_gap(&mut rng, 100.0)).collect();
        assert!(gaps.iter().all(|&g| g > 0.0 && g.is_finite()));
        let mean = gaps.iter().sum::<f64>() / f64::from(n);
        assert!((mean - 0.01).abs() < 0.001, "mean gap {mean}");
    }
}
