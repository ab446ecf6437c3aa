//! In-memory spans around the calls the benchmark makes into each
//! layer, written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::Samples;

/// Parent id of a root span.
pub const ROOT: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: usize,
    pair: u64,
}

/// A span recorder. Spans keep their insertion index as id.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::with_capacity(1 << 16) }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: usize, pair: u64) -> usize {
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, pair });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        let end = self.ns(Instant::now());
        if let Some(s) = self.spans.get_mut(id) {
            s.end_ns = end;
        }
    }

    /// Records a span whose bounds were stamped elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: usize,
        pair: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { name, start_ns, end_ns, parent, pair });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        pair: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, pair);
        let out = f();
        self.close(id);
        out
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Samples {
        self.durations_us_where(name, |_| true)
    }

    /// Durations (µs) of spans called `name` whose pair id passes `keep`.
    pub fn durations_us_where(&self, name: &str, keep: impl Fn(u64) -> bool) -> Samples {
        Samples::new(
            self.spans
                .iter()
                .filter(|s| s.name == name && keep(s.pair))
                .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
                .collect(),
        )
    }

    /// Total seconds covered by spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .sum::<f64>()
            / 1e9
    }

    /// Per name: span count, total and self time (duration minus the
    /// part covered by direct children), in µs.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(c) = child_ns.get_mut(s.parent) {
                *c += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total as f64 / 1e3;
            e.2 += total.saturating_sub(c) as f64 / 1e3;
        }
        out
    }

    /// Writes `id name start_ns end_ns parent pair` lines after `header`.
    pub fn write(&self, path: &Path, header: &str) -> Result<(), String> {
        let f = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut w = std::io::BufWriter::new(f);
        let io = |e: std::io::Error| format!("{}: {e}", path.display());
        writeln!(w, "{header}").map_err(io)?;
        writeln!(w, "id\tname\tstart_ns\tend_ns\tparent\tpair").map_err(io)?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT { "-".to_string() } else { s.parent.to_string() };
            writeln!(w, "{id}\t{}\t{}\t{}\t{parent}\t{}", s.name, s.start_ns, s.end_ns, s.pair)
                .map_err(io)?;
        }
        w.flush().map_err(io)
    }
}
