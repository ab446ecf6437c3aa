//! Metric names, units and the result line. The declarations mirror
//! `BENCHMARK.json`; a test keeps the two in step.

use std::collections::BTreeMap;

/// End-to-end metrics in the result line: every workload measures each
/// of these untraced. A workload's other end-to-end figures (capacity, GCUPS,
/// CPU per pair, latencies) are printed as `metric` lines but left out
/// of the result line: the CPU speed of a shared host moves them by up
/// to 2x between runs of the same code, past any useful bound.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("peak_rss_mib", "MiB")];

/// Per-layer metrics, printed by the traced run. A metric the workload
/// does not measure (its layer is idle, or the sample is too small for
/// the percentile) is reported as 0 and named so on stdout.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("proto.decode_us.p50", "us"),
    ("proto.encode_us.p50", "us"),
    ("proto.bytes_per_pair", "bytes"),
    ("tenant.admit_ns.p50", "ns"),
    ("tenant.rejected", "count"),
    ("server.residual_us.p50.light", "us"),
    ("server.residual_us.p50.busy", "us"),
    ("server.max_queue_depth", "count"),
    ("server.stolen", "count"),
    ("server.retries", "count"),
    ("server.software_pairs", "count"),
    ("ckpt.record_us.p50", "us"),
    ("ckpt.record_us.p99", "us"),
    ("ckpt.records", "count"),
    ("orchestrator.align_us.p50", "us"),
    ("orchestrator.align_us.p99", "us"),
    ("isa.pack_us.p50", "us"),
    ("coproc.block_us.p50", "us"),
    ("coproc.traceback_us.p50", "us"),
    ("align.verify_us.p50", "us"),
    ("coproc.recompute_tiles", "count"),
    ("pool.audit_us.p50", "us"),
    ("pool.audits", "count"),
    ("simd.score_us.p50.64bp", "us"),
    ("service.busy_ratio", "ratio"),
    ("service.max_queue_depth", "count"),
    ("gen.lag_ms.p99", "ms"),
];

#[derive(Debug, Clone)]
struct Value {
    value: f64,
    unit: &'static str,
    samples: usize,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<String, Value>,
    /// Pairs attempted.
    pub attempted: u64,
    /// FAIL + REJECT + timeout + wrong output.
    pub failed: u64,
    /// Outputs that differ from the golden DP.
    pub wrong: u64,
    /// Failed self-checks of the traced run.
    pub check_failures: Vec<String>,
}

impl Report {
    /// Sets a metric measured over `samples` samples.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.values.insert(name.to_string(), Value { value, unit, samples });
    }

    /// Prints every metric by name with unit and sample count, then the
    /// result line carrying the declared set for this mode. Returns
    /// whether the outputs were correct.
    pub fn finish(&self, trace: bool) -> Result<bool, String> {
        for (name, v) in &self.values {
            println!("metric {name} = {} {} (n={})", v.value, v.unit, v.samples);
        }
        let failed_ratio = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "metric failed_ratio = {failed_ratio} ratio (n={}; failed={} wrong={})",
            self.attempted, self.failed, self.wrong
        );
        let declared = if trace { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::new();
        for &(name, unit) in declared {
            let value = match self.values.get(name) {
                Some(v) if v.unit != unit => {
                    return Err(format!("{name} measured in {} but declared in {unit}", v.unit))
                }
                Some(v) => v.value,
                None if trace => {
                    println!("metric {name} = 0 {unit} (not measured by this workload)");
                    0.0
                }
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("{name} is not finite ({value})"));
            }
            fields.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
        }
        for c in &self.check_failures {
            println!("self-check FAILED: {c}");
        }
        let correct = self.wrong == 0 && self.check_failures.is_empty();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        );
        Ok(correct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The declarations here and in BENCHMARK.json name the same
    /// metrics with the same units, in the same order.
    #[test]
    fn declarations_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.lines()
                .filter_map(|l| {
                    let field = |f: &str| {
                        let at = l.find(&format!("\"{f}\": \""))? + f.len() + 5;
                        Some(l[at..at + l[at..].find('"')?].to_string())
                    };
                    Some((field("name")?, field("unit")?))
                })
                .collect()
        };
        let owned = |d: &[(&str, &str)]| -> Vec<(String, String)> {
            d.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(section("end_to_end"), owned(END_TO_END));
        assert_eq!(section("per_layer"), owned(PER_LAYER));
    }
}
