//! Process readings (CPU time, peak RSS) and the run metadata printed
//! with every result.

use std::path::Path;
use std::time::Instant;

use smx::algos::simd::{self, Baseline};
use smx::align::AlignmentConfig;

/// Process user+sys CPU seconds, from `/proc/self/stat` (all threads,
/// live and exited). Linux reports it in USER_HZ = 100 ticks/s.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok((tick(11)? + tick(12)?) / 100.0)
}

/// CPU seconds the hypervisor ran other guests on this machine's CPUs
/// (the `steal` column of `/proc/stat`, all CPUs), or 0 where the
/// kernel does not report it. Runs that saw steal measure a slower host.
pub fn steal_seconds() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| stat.lines().next()?.split_whitespace().nth(8)?.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Peak resident set size in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// CPU seconds and wall time spent between two points of a run.
pub struct CpuWindow {
    cpu0: f64,
    wall0: Instant,
}

impl CpuWindow {
    pub fn start() -> Result<CpuWindow, String> {
        Ok(CpuWindow { cpu0: cpu_seconds()?, wall0: Instant::now() })
    }

    /// `(cpu seconds, wall seconds)` since [`CpuWindow::start`].
    pub fn stop(&self) -> Result<(f64, f64), String> {
        Ok((cpu_seconds()? - self.cpu0, self.wall0.elapsed().as_secs_f64()))
    }
}

/// SplitMix64: the benchmark's only randomness, so a seed fixes every
/// generated input and schedule.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// Exponential gap with the given rate (per second), in seconds.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -self.unit().ln() / rate
    }
}

/// FNV-1a over the sources the benchmark builds, so a run can name the
/// code it measured even where there is no git checkout.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench/src"), &mut files);
    files.push("Cargo.lock".into());
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in f.to_string_lossy().bytes().chain(std::fs::read(f).unwrap_or_default()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "none".to_string(), |s| s.trim().to_string())
}

/// The `# meta` line: what was measured, where, and which kernel the
/// host dispatches to for each configuration at `len` x `len`.
pub fn meta_line(workload: &str, seed: u64, trace: bool, len: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let kernels: Vec<String> =
        [AlignmentConfig::DnaEdit, AlignmentConfig::DnaGap, AlignmentConfig::Protein]
            .into_iter()
            .map(|c| {
                let k = simd::selected_kernel(Baseline::Auto, &c.scoring(), len, len);
                format!("kernel.{}={}", c.name(), k.name())
            })
            .collect();
    format!(
        "# meta workload={workload} seed={seed} trace={} commit={} source_fnv={} nproc={nproc} avx2={} force_scalar={} {}",
        u8::from(trace),
        git_commit(),
        source_digest(),
        simd::avx2_available(),
        simd::force_scalar(),
        kernels.join(" ")
    )
}
