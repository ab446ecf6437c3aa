//! The one percentile helper every timing goes through, and the
//! quiet-window selections built on it.

/// Percentiles the helper may report, highest first.
const LADDER: [f64; 6] = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// A sorted sample set.
#[derive(Debug, Clone)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sorts `values` (NaNs are a bug in the caller and panic).
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
        Samples { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// 1-based nearest rank of the `q` percentile (the epsilon keeps
    /// `0.99 * 1000` from rounding up to rank 991).
    fn rank(n: usize, q: f64) -> usize {
        ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
    }

    /// Samples strictly beyond the nearest-rank `q` percentile.
    fn beyond(n: usize, q: f64) -> usize {
        n - Samples::rank(n, q)
    }

    /// Whether the `q` percentile has at least [`MIN_BEYOND`] samples
    /// beyond it.
    pub fn supports(&self, q: f64) -> bool {
        !self.sorted.is_empty() && Samples::beyond(self.sorted.len(), q) >= MIN_BEYOND
    }

    /// The nearest-rank `q` percentile, or `None` when the sample does
    /// not support it.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if !self.supports(q) {
            return None;
        }
        Some(self.sorted[Samples::rank(self.sorted.len(), q) - 1])
    }

    /// The highest percentile on the ladder that the sample supports.
    pub fn tail(&self) -> Option<(f64, f64)> {
        LADDER.iter().find_map(|&q| self.quantile(q).map(|v| (q, v)))
    }

    /// `n=.. p50=.. p99=..` with the tail the sample supports, for logs.
    pub fn describe(&self) -> String {
        let p50 = self.quantile(0.5).map_or("-".into(), |v| format!("{v:.4}"));
        let tail = match self.tail() {
            Some((q, v)) if q > 0.5 => format!(" p{}={v:.4}", label(q)),
            _ => String::new(),
        };
        format!("n={} p50={p50}{tail}", self.len())
    }
}

/// `0.99` → `99`, `0.999` → `99.9`.
pub fn label(q: f64) -> String {
    let pct = q * 100.0;
    if (pct - pct.round()).abs() < 1e-9 {
        format!("{}", pct.round() as u64)
    } else {
        format!("{pct:.1}")
    }
}

/// The median of a small set of per-run or per-window values (upper
/// median for even counts); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = Samples::new(values.to_vec());
    let n = s.len();
    if n == 0 {
        return None;
    }
    Some(s.sorted[n / 2])
}

/// One window of a throughput run: the work it finished, the wall and
/// CPU time it took, and the latencies of the requests it timed.
#[derive(Debug, Clone, Default)]
pub struct Window {
    pub cells: u64,
    pub units: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub latencies_ms: Vec<f64>,
}

/// A throughput run's metrics over its quiet windows.
#[derive(Debug, Clone)]
pub struct Quiet {
    pub windows: usize,
    pub gcups: f64,
    pub units_per_s: f64,
    pub cpu_us_per_unit: f64,
    pub latencies: Samples,
}

/// Metrics over the quiet windows: those whose cells per second reach
/// the 90th percentile of all windows. Co-tenants of a shared host only
/// ever slow a window down, and they come and go over seconds, so the
/// fastest tenth tracks the undisturbed speed while the percentile
/// still ignores the luckiest few windows. `None` when there are too
/// few windows for the percentile to have [`MIN_BEYOND`] beyond it.
pub fn quiet(windows: &[Window]) -> Option<Quiet> {
    let rate = |w: &Window| w.cells as f64 / w.wall_s;
    let cut = Samples::new(windows.iter().map(rate).collect()).quantile(0.9)?;
    let quiet: Vec<&Window> = windows.iter().filter(|w| rate(w) >= cut).collect();
    let (cells, units) = quiet.iter().fold((0, 0), |(c, u), w| (c + w.cells, u + w.units));
    let wall: f64 = quiet.iter().map(|w| w.wall_s).sum();
    let cpu: f64 = quiet.iter().map(|w| w.cpu_s).sum();
    Some(Quiet {
        windows: quiet.len(),
        gcups: cells as f64 / wall / 1e9,
        units_per_s: units as f64 / wall,
        cpu_us_per_unit: cpu * 1e6 / units.max(1) as f64,
        latencies: Samples::new(
            quiet.iter().flat_map(|w| w.latencies_ms.iter().copied()).collect(),
        ),
    })
}

/// Latencies a [`WindowCutter`] keeps per window: the first answers of
/// a window sample it fairly, ten quiet windows' worth support a p99,
/// and the memory they take does not grow with the server's rate.
pub const WINDOW_LATENCIES: usize = 256;

/// Cuts a closed-loop run's answers into windows of completion time.
/// Only a correct answer completes work: a refused, failed or wrong
/// pair counts in no window, so it lowers the rate like any miss.
#[derive(Debug)]
pub struct WindowCutter {
    width_s: f64,
    end_s: f64,
    start_s: f64,
    open: Window,
    /// The windows closed so far.
    pub windows: Vec<Window>,
}

impl WindowCutter {
    /// Windows of `width_s` seconds, up to `end_s` seconds into the run.
    pub fn new(width_s: f64, end_s: f64) -> WindowCutter {
        WindowCutter { width_s, end_s, start_s: 0.0, open: Window::default(), windows: Vec::new() }
    }

    /// An answer `at_s` seconds into the run: `Some((cells, latency_ms))`
    /// for a correct result. The first answer past a window's width
    /// closes it and opens the next; answers from `end_s` on (the tail
    /// that drains the pairs still in flight) count nowhere.
    pub fn answer(&mut self, at_s: f64, done: Option<(u64, f64)>) {
        if at_s >= self.end_s {
            return;
        }
        if at_s >= self.start_s + self.width_s {
            self.open.wall_s = at_s - self.start_s;
            self.windows.push(std::mem::take(&mut self.open));
            self.start_s = at_s;
        }
        if let Some((cells, latency_ms)) = done {
            self.open.units += 1;
            self.open.cells += cells;
            if self.open.latencies_ms.len() < WINDOW_LATENCIES {
                self.open.latencies_ms.push(latency_ms);
            }
        }
    }
}

/// Latencies over the calm windows: those whose p50 is at most the
/// 10th percentile of all windows' p50s, the latency counterpart of
/// [`quiet`]. `None` when too few windows support the percentile.
pub fn calm(windows: &[Vec<f64>]) -> Option<Samples> {
    let p50 = |w: &Vec<f64>| Samples::new(w.clone()).quantile(0.5);
    let cut = Samples::new(windows.iter().filter_map(p50).collect()).quantile(0.1)?;
    Some(Samples::new(
        windows
            .iter()
            .filter(|w| p50(w).is_some_and(|v| v <= cut))
            .flat_map(|w| w.iter().copied())
            .collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Samples {
        Samples::new((1..=n).map(|i| i as f64).collect())
    }

    #[test]
    fn p50_needs_twenty_samples() {
        assert_eq!(ramp(19).quantile(0.5), None);
        assert_eq!(ramp(20).quantile(0.5), Some(10.0));
    }

    #[test]
    fn tail_is_the_highest_supported_percentile() {
        // 618 samples (the size behind an unsupported p999 in the old
        // server storm) support p95 but neither p99 nor p999.
        let s = ramp(618);
        assert_eq!(s.quantile(0.999), None);
        assert_eq!(s.quantile(0.99), None);
        assert_eq!(s.tail().map(|(q, _)| q), Some(0.95));
        assert!(!s.describe().contains("p99"));
        // 1000 samples support exactly p99 with ten beyond it.
        let s = ramp(1000);
        assert_eq!(s.quantile(0.99), Some(990.0));
        assert_eq!(s.tail(), Some((0.99, 990.0)));
        assert_eq!(ramp(10_000).tail().map(|(q, _)| q), Some(0.999));
        assert_eq!(ramp(5).tail(), None);
    }

    #[test]
    fn quantile_ignores_input_order() {
        let s = Samples::new([3.0, 1.0, 2.0].repeat(10));
        assert_eq!(s.quantile(0.5), Some(2.0));
        assert_eq!(s.len(), 30);
    }

    #[test]
    fn median_of_small_sets() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0, 1.0, 9.0]), Some(4.0));
    }

    #[test]
    fn quiet_windows_are_the_fastest_tenth() {
        // Window i does i cells per second for one second, at 2 µs of
        // CPU per unit; the slow nine tenths never enter the result.
        let windows: Vec<Window> = (1..=100)
            .map(|i| Window {
                cells: i * 1_000_000_000,
                units: i,
                wall_s: 1.0,
                cpu_s: i as f64 * 2e-6,
                latencies_ms: vec![1000.0 / i as f64],
            })
            .collect();
        let q = quiet(&windows).unwrap();
        assert_eq!(q.windows, 11);
        assert!((q.gcups - (90..=100).sum::<u64>() as f64 / 11.0).abs() < 1e-9);
        assert!((q.cpu_us_per_unit - 2.0).abs() < 1e-9);
        assert_eq!(q.latencies.len(), 11);
        assert!(quiet(&windows[..99]).is_none(), "p90 of 99 windows is unsupported");
    }

    #[test]
    fn a_refusal_completes_nothing() {
        // An answer every 1/8 s for 64 s in windows of 1/4 s (exact in
        // binary); from 32 s on every second pair is refused.
        let mut cut = WindowCutter::new(0.25, 64.0);
        for i in 0..=512 {
            let at = f64::from(i) / 8.0;
            let refused = at >= 32.0 && i % 2 == 1;
            cut.answer(at, (!refused).then_some((4096, 1.0)));
        }
        let rate = |w: &Window| w.units as f64 / w.wall_s;
        assert_eq!(cut.windows.len(), 255, "the last window is open at the end");
        assert!(cut.windows[..128].iter().all(|w| rate(w) == 8.0));
        assert!(cut.windows[128..].iter().all(|w| rate(w) == 4.0));
        assert!(cut.windows.iter().all(|w| w.cells == w.units * 4096));
        // The quiet tenth is the undisturbed rate, and a server that
        // refuses every second pair all run long has half the capacity.
        assert_eq!(quiet(&cut.windows).unwrap().units_per_s, 8.0);
        let mut half = WindowCutter::new(0.25, 64.0);
        for i in 0..512 {
            half.answer(f64::from(i) / 8.0, (i % 2 == 0).then_some((4096, 1.0)));
        }
        assert_eq!(quiet(&half.windows).unwrap().units_per_s, 4.0);
        // A busy window counts every answer but keeps a bounded sample
        // of latencies.
        let mut busy = WindowCutter::new(1.0, 4.0);
        for i in 0..1000 {
            busy.answer(f64::from(i) / 500.0, Some((1, 1.0)));
        }
        assert_eq!(busy.windows.len(), 1);
        assert_eq!(busy.windows[0].units, 500);
        assert_eq!(busy.windows[0].latencies_ms.len(), WINDOW_LATENCIES);
    }

    #[test]
    fn calm_windows_are_the_fastest_tenth() {
        // Window i holds 30 latencies of i ms; a window of refusals
        // (infinite latency) is never calm.
        let mut windows: Vec<Vec<f64>> = (1..=40).map(|i| vec![i as f64; 30]).collect();
        windows.push(vec![f64::INFINITY; 30]);
        let c = calm(&windows).unwrap();
        // The 10th percentile of 41 window p50s is the 5th smallest.
        assert_eq!(c.len(), 5 * 30);
        assert_eq!(c.quantile(0.5), Some(3.0));
        // Windows too small for a p50 are left out.
        windows.push(vec![0.1; 5]);
        assert_eq!(calm(&windows).unwrap().len(), 5 * 30);
        assert!(calm(&windows[..10]).is_none(), "p10 of 10 windows is unsupported");
    }
}
