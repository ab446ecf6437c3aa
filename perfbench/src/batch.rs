//! `batch-long`: HiFi-profile DNA-gap pairs of 1.5 kbp through the
//! batch service (`BatchExecutor`, the `smx align` path) with two jobs.
//!
//! Device emulation (block compute + traceback) is nearly all of the
//! wall time here and the front door does nothing, so this shows a
//! device-emulation gain at a length where fixed costs vanish, and
//! guards the batch side of the executor.

use std::time::Instant;

use smx::align::{dp, Alignment, AlignmentConfig, Sequence};
use smx::datagen::{Dataset, ErrorProfile};
use smx::{
    AdmissionPolicy, AuditConfig, BatchExecutor, BreakerConfig, ExecutorConfig, PairOutcome,
    RunOptions, SmxDevice,
};

use crate::layers::{self, AlignReplay};
use crate::report::Report;
use crate::stats::{self, Samples, Window};
use crate::sys::CpuWindow;
use crate::trace::{Tracer, ROOT};

const PAIR_LEN: usize = 1500;
/// Distinct pairs; one batch submits all of them.
const BATCH: usize = 16;
/// Single-pair requests before each batch.
const LIGHT_PER_ROUND: usize = 2;
/// Times the traced run replays each distinct pair.
const REPLAY_PASSES: usize = 2;
const JOBS: usize = 2;
const AUDIT_RATE: f64 = 0.05;
/// Extra executor set-ups per round, besides the round's own: spread
/// over the run, their median does not hang on one moment of the host.
const SETUP_REPS: usize = 2;
/// The run has at least this many rounds, so the quiet percentile and the
/// p99 over batch pairs are always supported.
const MIN_ROUNDS: usize = 100;

fn config(seed: u64) -> ExecutorConfig {
    ExecutorConfig {
        jobs: JOBS,
        admission: AdmissionPolicy::Block,
        breaker: Some(BreakerConfig::default()),
        audit: Some(AuditConfig { rate: AUDIT_RATE, seed }),
        ..ExecutorConfig::default()
    }
}

/// Builds the executor and runs an empty batch: the device pool and
/// worker start-up every `run` performs before its first pair.
fn build(audit_seed: u64) -> Result<BatchExecutor, String> {
    let dev =
        SmxDevice::new(AlignmentConfig::DnaGap, layers::WORKERS).map_err(|e| e.to_string())?;
    let exec = BatchExecutor::new(dev, config(audit_seed)).map_err(|e| e.to_string())?;
    std::hint::black_box(exec.run(&[]));
    Ok(exec)
}

/// Counts outcomes that are not the golden alignment (outcome `i` is
/// pair `i`).
fn check(outcomes: &[PairOutcome], golden: &[Alignment]) -> (u64, u64) {
    let (mut failed, mut wrong) = (0, 0);
    for (i, o) in outcomes.iter().enumerate() {
        match o {
            PairOutcome::Aligned(a) if *a == golden[i] => {}
            PairOutcome::Aligned(a) => {
                eprintln!("WRONG pair {i}: got {} {}", a.score, a.cigar);
                wrong += 1;
                failed += 1;
            }
            _ => failed += 1,
        }
    }
    (failed, wrong)
}

pub fn run(seed: u64, seconds: f64, tracer: Option<&mut Tracer>) -> Result<Report, String> {
    let mut report = Report::default();
    let config = AlignmentConfig::DnaGap;
    let scheme = config.scoring();
    let ds = Dataset::synthetic(config, PAIR_LEN, BATCH, ErrorProfile::pacbio_hifi(), seed);
    let pairs: Vec<(Sequence, Sequence)> =
        ds.pairs.iter().map(|p| (p.query.clone(), p.reference.clone())).collect();
    let golden: Vec<Alignment> =
        pairs.iter().map(|(q, r)| dp::align_codes(q.codes(), r.codes(), &scheme)).collect();
    let cells: Vec<u64> = pairs.iter().map(|(q, r)| (q.len() * r.len()) as u64).collect();

    let mut setups = Vec::new();
    let set_up = |setups: &mut Vec<f64>, audit_seed: u64| -> Result<BatchExecutor, String> {
        let t0 = Instant::now();
        let exec = build(audit_seed)?;
        setups.push(t0.elapsed().as_secs_f64());
        Ok(exec)
    };
    // Rounds alternate two single-pair requests on the idle executor
    // (light) with one whole batch (busy); each pair of a batch is timed
    // from the batch's submission to its result. Every light request
    // aligns the first pair, so the light latency does not hang on which
    // pairs the quiet rounds happened to send. The audit samples by
    // index within a batch, so every round builds its executor with its
    // own audit seed: across rounds 5% of all pairs are audited, as over
    // separate invocations, instead of a fixed few indices or none.
    let mut tr = tracer;
    let mut windows: Vec<Window> = Vec::new();
    let mut batch_latencies = Vec::new();
    let mut audits = 0u64;
    let mut max_depth = 0usize;
    let batch_cells: u64 = cells.iter().sum();
    let end = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    while Instant::now() < end || windows.len() < MIN_ROUNDS {
        for _ in 0..SETUP_REPS {
            std::hint::black_box(set_up(&mut setups, seed)?);
        }
        let exec = set_up(&mut setups, seed.wrapping_add(windows.len() as u64))?;
        let mut w = Window::default();
        for _ in 0..LIGHT_PER_ROUND {
            let t0 = Instant::now();
            let out = exec.run(&pairs[..1]);
            w.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let (failed, wrong) = check(&out.outcomes, &golden);
            report.attempted += 1;
            report.failed += failed;
            report.wrong += wrong;
        }

        let cpu = CpuWindow::start()?;
        let t0 = Instant::now();
        let mut done: Vec<(usize, Instant)> = Vec::with_capacity(BATCH);
        let mut hook = |i: usize, _: &Alignment| done.push((i, Instant::now()));
        let out = exec
            .run_with(&pairs, RunOptions { on_result: Some(&mut hook), ..RunOptions::default() });
        let t1 = Instant::now();
        (w.cpu_s, w.wall_s) = cpu.stop()?;
        if let Some(tr) = tr.as_deref_mut() {
            let span = tr.record("service.run", ROOT, windows.len() as u64, t0, t1);
            for &(i, at) in &done {
                tr.record("service.pair", span, i as u64, t0, at);
            }
        }
        batch_latencies.extend(
            done.iter().map(|(_, at)| at.saturating_duration_since(t0).as_secs_f64() * 1e3),
        );
        let (failed, wrong) = check(&out.outcomes, &golden);
        report.attempted += BATCH as u64;
        report.failed += failed + (BATCH - done.len()) as u64;
        report.wrong += wrong;
        w.cells = batch_cells;
        w.units = done.len() as u64;
        audits += out.stats.audits_run;
        max_depth = max_depth.max(out.stats.max_queue_depth);
        windows.push(w);
    }
    let batches = windows.len();
    let busy_wall: f64 = windows.iter().map(|w| w.wall_s).sum();
    let busy = Samples::new(batch_latencies);
    println!("# busy: {batches} batches of {BATCH}, pair latency ms {}", busy.describe());
    if let Some(v) = busy.quantile(0.99) {
        report.set("p99_ms.busy", v, "ms", busy.len());
    }
    report.set("setup_s", stats::median(&setups).unwrap_or(0.0), "s", setups.len());
    let q = stats::quiet(&windows).ok_or("too few batches for the quiet percentile")?;
    println!(
        "# quiet rounds {}/{batches}: {:.4} GCUPS, single-pair latency ms {}",
        q.windows,
        q.gcups,
        q.latencies.describe()
    );
    if let Some(v) = q.latencies.quantile(0.5) {
        report.set("p50_ms.light", v, "ms", q.latencies.len());
    }
    report.set("capacity_pairs_per_s", q.units_per_s, "1/s", q.windows);
    report.set("gcups", q.gcups, "GCUPS", q.windows);
    report.set("cpu_us_per_pair", q.cpu_us_per_unit, "us", q.windows);

    if let Some(tr) = tr {
        report.set("pool.audits", audits as f64, "count", batches);
        report.set("service.max_queue_depth", max_depth as f64, "count", batches);
        // Replay each distinct pair twice (enough spans for a p50); the
        // busy phase ran each of them `batches` times.
        let mut align = AlignReplay::new(config)?;
        let tiles0 = align.recompute_tiles();
        for (i, (q, r)) in pairs.iter().enumerate().cycle().take(REPLAY_PASSES * BATCH) {
            let pair = i as u64;
            let span = tr.open("replay.pair", ROOT, pair);
            let aln = align.align(tr, span, pair, q, r)?;
            if aln != golden[i] {
                report.wrong += 1;
            }
            // Every replayed pair is audited, so the audit's cost at this
            // length has a sample; `pool.audits` is the live count.
            align.audit(tr, span, pair, &aln, q, r)?;
            tr.close(span);
        }
        report.set(
            "coproc.recompute_tiles",
            (align.recompute_tiles() - tiles0) as f64,
            "count",
            REPLAY_PASSES * BATCH,
        );
        layers::set_layer_metrics(tr, &mut report);
        let busy_s = tr.total_s("orchestrator.align") / REPLAY_PASSES as f64 * batches as f64;
        report.set("service.busy_ratio", busy_s / (JOBS as f64 * busy_wall), "ratio", batches);
    }
    Ok(report)
}
