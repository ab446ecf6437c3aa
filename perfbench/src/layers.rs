//! Replays of single layers: the benchmark's own calls into each
//! layer's public functions, each under a span. The traced run of a
//! workload feeds its generated pairs through these to attribute time.

use std::path::Path;
use std::time::Instant;

use smx::algos::simd::{self, Baseline, SimdWorkspace};
use smx::align::{Alignment, AlignmentConfig, ScoringScheme, Sequence};
use smx::coproc::{BlockMode, SmxCoprocessor};
use smx::isa::{kernels, Smx1dUnit};
use smx::server::proto::{read_frame, write_frame, Request, Response};
use smx::server::tenant::{TenantPolicy, TokenBucket};
use smx::SmxDevice;
use smx_io::checkpoint::{CheckpointWriter, SyncFile};

use crate::report::Report;
use crate::trace::Tracer;

/// Coprocessor workers of every device the benchmark builds.
pub const WORKERS: usize = 4;

/// Whether the pool's audit sampler picks pair `index` — the same
/// SplitMix64 finalization over `(seed, index)` as `AuditConfig`.
pub fn audit_samples(seed: u64, rate: f64, index: usize) -> bool {
    let mut x = seed.wrapping_add(0x9E37_79B9_7F4A_7C15).wrapping_add(index as u64);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    ((x >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < rate
}

/// The device path, called whole (`orchestrator.align`) and then piece
/// by piece (`isa.pack`, `coproc.block`, `coproc.traceback`,
/// `align.verify`) under an `orchestrator.parts` span, plus the pool's
/// two-phase audit (`pool.audit` with its `simd.score` child).
pub struct AlignReplay {
    dev: SmxDevice,
    unit: Smx1dUnit,
    coproc: SmxCoprocessor,
    scheme: ScoringScheme,
    ws: SimdWorkspace,
}

impl AlignReplay {
    pub fn new(config: AlignmentConfig) -> Result<AlignReplay, String> {
        let scheme = config.scoring();
        let ew = config.element_width();
        Ok(AlignReplay {
            dev: SmxDevice::new(config, WORKERS).map_err(|e| e.to_string())?,
            unit: Smx1dUnit::configure(ew, &scheme).map_err(|e| e.to_string())?,
            coproc: SmxCoprocessor::new(ew, &scheme, WORKERS).map_err(|e| e.to_string())?,
            scheme,
            ws: SimdWorkspace::new(),
        })
    }

    /// Tiles the device's tracebacks have recomputed so far.
    pub fn recompute_tiles(&self) -> u64 {
        self.dev.recompute_stats().tiles
    }

    pub fn align(
        &mut self,
        tr: &mut Tracer,
        parent: usize,
        pair: u64,
        q: &Sequence,
        r: &Sequence,
    ) -> Result<Alignment, String> {
        let dev = &mut self.dev;
        let aln = tr.time("orchestrator.align", parent, pair, || dev.align(q, r));
        let aln = aln.map_err(|e| format!("pair {pair}: device align: {e}"))?;

        let parts = tr.open("orchestrator.parts", parent, pair);
        let unit = &mut self.unit;
        let mut pack = |tr: &mut Tracer, s: &Sequence| {
            tr.time("isa.pack", parts, pair, || {
                kernels::pack_ascii_sequence(unit, s.to_text().as_bytes())
            })
            .map(|p| p.unpack())
            .map_err(|e| format!("pair {pair}: pack: {e}"))
        };
        let qc = pack(tr, q)?;
        let rc = pack(tr, r)?;
        let coproc = &self.coproc;
        let out = tr
            .time("coproc.block", parts, pair, || {
                coproc.compute_block(&qc, &rc, None, BlockMode::Traceback)
            })
            .map_err(|e| format!("pair {pair}: block: {e}"))?;
        let (cigar, _) = tr
            .time("coproc.traceback", parts, pair, || coproc.traceback(&qc, &rc, &out))
            .map_err(|e| format!("pair {pair}: traceback: {e}"))?;
        let pieced = Alignment { score: out.score, cigar };
        let scheme = &self.scheme;
        tr.time("align.verify", parts, pair, || pieced.verify(&qc, &rc, scheme))
            .map_err(|e| format!("pair {pair}: verify: {e}"))?;
        tr.close(parts);
        if pieced != aln {
            return Err(format!("pair {pair}: the piecewise device path disagrees with align"));
        }
        Ok(aln)
    }

    /// The audit: consistency check, then the streaming optimal score.
    pub fn audit(
        &mut self,
        tr: &mut Tracer,
        parent: usize,
        pair: u64,
        aln: &Alignment,
        q: &Sequence,
        r: &Sequence,
    ) -> Result<(), String> {
        let span = tr.open("pool.audit", parent, pair);
        aln.verify(q.codes(), r.codes(), &self.scheme)
            .map_err(|e| format!("pair {pair}: audit verify: {e}"))?;
        let (scheme, ws) = (&self.scheme, &mut self.ws);
        let profile = tr.time("simd.score", span, pair, || {
            simd::score_profile(q.codes(), r.codes(), scheme, Baseline::Auto, ws)
        });
        tr.close(span);
        if profile.score != aln.score {
            return Err(format!("pair {pair}: audit score {} != {}", profile.score, aln.score));
        }
        Ok(())
    }
}

/// The front-door layers around one pair: frame decode, admission,
/// durable record and frame encode.
pub struct FrontReplay {
    bucket: TokenBucket,
    ckpt: CheckpointWriter<SyncFile>,
    out: Vec<u8>,
}

impl FrontReplay {
    /// `policy` is the workload's tenant policy; the manifest is written
    /// in `dir`, next to the workload's own session manifests.
    pub fn new(policy: TenantPolicy, dir: &Path) -> Result<FrontReplay, String> {
        let path = dir.join("replay.ckpt");
        Ok(FrontReplay {
            bucket: TokenBucket::new(policy),
            ckpt: CheckpointWriter::create(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?,
            out: Vec::with_capacity(4096),
        })
    }

    /// `proto.decode`: one request frame, read and parsed.
    pub fn decode(
        &mut self,
        tr: &mut Tracer,
        parent: usize,
        pair: u64,
        frame: &[u8],
    ) -> Result<Request, String> {
        tr.time("proto.decode", parent, pair, || {
            let mut input = frame;
            read_frame(&mut input).and_then(|p| Request::parse(&p.unwrap_or_default()))
        })
        .map_err(|e| format!("pair {pair}: decode: {e}"))
    }

    /// `tenant.admit`: one token-bucket take.
    pub fn admit(&mut self, tr: &mut Tracer, parent: usize, pair: u64) -> Result<(), String> {
        let bucket = &mut self.bucket;
        tr.time("tenant.admit", parent, pair, || bucket.try_take(Instant::now()))
            .map_err(|wait| format!("pair {pair}: replay bucket refused ({wait:?})"))
    }

    /// `ckpt.record`: one durable manifest record (write + fsync).
    pub fn record(
        &mut self,
        tr: &mut Tracer,
        parent: usize,
        pair: u64,
        aln: &Alignment,
    ) -> Result<(), String> {
        let ckpt = &mut self.ckpt;
        tr.time("ckpt.record", parent, pair, || ckpt.record(pair as usize, aln))
            .map_err(|e| format!("pair {pair}: checkpoint record: {e}"))
    }

    /// `proto.encode`: the `RESULT` frame; returns its size in bytes.
    pub fn encode(
        &mut self,
        tr: &mut Tracer,
        parent: usize,
        pair: u64,
        aln: &Alignment,
    ) -> Result<usize, String> {
        let out = &mut self.out;
        out.clear();
        let resp = Response::Result {
            id: pair as usize,
            score: aln.score,
            cigar: aln.cigar.to_string(),
            resumed: false,
        };
        tr.time("proto.encode", parent, pair, || write_frame(out, &resp.encode()))
            .map_err(|e| format!("pair {pair}: encode: {e}"))?;
        Ok(out.len())
    }
}

/// One `PAIR` request frame as the client puts it on the wire.
pub fn request_frame(id: usize, q: &Sequence, r: &Sequence) -> Result<Vec<u8>, String> {
    let mut frame = Vec::new();
    let req = Request::Pair { id, query: q.to_text(), reference: r.to_text() };
    write_frame(&mut frame, &req.encode()).map_err(|e| e.to_string())?;
    Ok(frame)
}

/// The p50 (and where named, p99) of every replayed layer's spans.
pub fn set_layer_metrics(tr: &Tracer, report: &mut Report) {
    for (metric, span) in [
        ("proto.decode_us.p50", "proto.decode"),
        ("proto.encode_us.p50", "proto.encode"),
        ("ckpt.record_us.p50", "ckpt.record"),
        ("orchestrator.align_us.p50", "orchestrator.align"),
        ("isa.pack_us.p50", "isa.pack"),
        ("coproc.block_us.p50", "coproc.block"),
        ("coproc.traceback_us.p50", "coproc.traceback"),
        ("align.verify_us.p50", "align.verify"),
        ("pool.audit_us.p50", "pool.audit"),
    ] {
        let s = tr.durations_us(span);
        if let Some(v) = s.quantile(0.5) {
            report.set(metric, v, "us", s.len());
        }
    }
    for (metric, span) in
        [("ckpt.record_us.p99", "ckpt.record"), ("orchestrator.align_us.p99", "orchestrator.align")]
    {
        let s = tr.durations_us(span);
        match s.quantile(0.99) {
            Some(v) => report.set(metric, v, "us", s.len()),
            None if s.len() > 0 => {
                println!("# {metric}: unsupported by {} samples ({})", s.len(), s.describe());
            }
            None => {}
        }
    }
    let admit = tr.durations_us("tenant.admit");
    if let Some(v) = admit.quantile(0.5) {
        report.set("tenant.admit_ns.p50", v * 1e3, "ns", admit.len());
    }
}
