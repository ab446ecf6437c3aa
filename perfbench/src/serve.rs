//! `serve-short`: 64 bp DNA-edit pairs sent open-loop over framed TCP
//! to an in-process sharded server with durable sessions.
//!
//! Per-pair fixed costs dominate at this length — framing, admission,
//! queue handoff, device emulation and one fsync per acknowledged pair —
//! while the kernel runs only for the 5% audits. The `light` rate shows
//! a per-pair cost cut; the capacity run (a closed loop with a fixed
//! number of pairs in flight) and the `busy` rate show a change that
//! frees the two cores.
//!
//! A shared host slows whole stretches of a run. Capacity is therefore
//! taken over the fastest tenth of the capacity run's windows, and light
//! latency over the calmest tenth of the light windows.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use smx::align::{dp, AlignmentConfig, Sequence};
use smx::datagen::{Dataset, ErrorProfile};
use smx::server::proto::{read_frame, write_frame, Request, Response};
use smx::server::tenant::{Priority, TenantPolicy};
use smx::{
    AuditConfig, BreakerConfig, ExecutorConfig, Server, ServerConfig, ServerHandle, SmxDevice,
};
use smx_io::checkpoint::Manifest;

use crate::layers::{self, AlignReplay, FrontReplay};
use crate::report::Report;
use crate::stats::{self, Samples, Window, WindowCutter};
use crate::sys::{CpuWindow, SplitMix};
use crate::trace::{Tracer, ROOT};

/// Offered rates (pairs/s). On a shared 2-vCPU x86-64 host with AVX2
/// this workload's capacity measured from about 7000 to 19000 pairs/s
/// as the host's speed changed; the light rate is about a fifth of the
/// low end and the busy rate about 0.6 of it. They stay fixed so that
/// runs of different commits offer the same load, and the busy rate
/// leaves a fast host idle time rather than pushing a slow one past
/// saturation.
pub const LIGHT_PER_S: f64 = 1500.0;
pub const BUSY_PER_S: f64 = 4000.0;
/// The latency limit the capacity run must hold its p99 under.
pub const P99_LIMIT_MS: f64 = 50.0;

const PAIR_LEN: usize = 64;
/// Distinct generated pairs; pair `id` carries pool entry `id % POOL`.
const POOL: usize = 4096;
const HI_SHARE: f64 = 0.25;
const AUDIT_RATE: f64 = 0.05;
/// Extra set-ups before each light round and before the capacity run:
/// spread over the run, their median does not hang on one moment.
const SETUP_REPS: usize = 10;
/// Pairs a session carries before the phase moves on to a fresh one.
const SESSION_PAIRS: usize = 2048;
/// Pairs in flight during the capacity run: enough to keep both shards
/// and both session writers busy, few enough that no backlog builds.
const SATURATION_WINDOW: usize = 32;
/// Windows the capacity run is cut into; the quiet percentile needs
/// at least 100.
const SATURATION_WINDOWS: usize = 200;
/// Consecutive scheduled light pairs that make one latency window.
const LIGHT_WINDOW: usize = 150;
/// Pairs of each light or busy phase the traced run replays, in the
/// order the server answered them.
const REPLAY_PER_PHASE: usize = 1000;
/// Open-loop rounds at each of the two rates.
const ROUNDS: usize = 5;
/// How long a phase waits for its last answers before counting the
/// missing ones as timeouts.
const ANSWER_WAIT: Duration = Duration::from_secs(10);

struct Pool {
    seqs: Vec<(Sequence, Sequence)>,
    texts: Vec<(String, String)>,
    golden: Vec<(i32, String)>,
    cells: Vec<u64>,
}

impl Pool {
    fn generate(seed: u64) -> Pool {
        let config = AlignmentConfig::DnaEdit;
        let scheme = config.scoring();
        let ds = Dataset::synthetic(config, PAIR_LEN, POOL, ErrorProfile::moderate(), seed);
        let seqs: Vec<(Sequence, Sequence)> =
            ds.pairs.into_iter().map(|p| (p.query, p.reference)).collect();
        let texts = seqs.iter().map(|(q, r)| (q.to_text(), r.to_text())).collect();
        let golden = seqs
            .iter()
            .map(|(q, r)| {
                let a = dp::align_codes(q.codes(), r.codes(), &scheme);
                (a.score, a.cigar.to_string())
            })
            .collect();
        let cells = seqs.iter().map(|(q, r)| (q.len() * r.len()) as u64).collect();
        Pool { seqs, texts, golden, cells }
    }
}

struct Arrival {
    at: Instant,
    resp: Response,
}

/// One tenant's connection: a buffered write half (so a frame leaves in
/// one write) and a reader thread forwarding every response up to DONE.
struct Conn {
    out: BufWriter<TcpStream>,
    reader: Option<JoinHandle<Result<(), String>>>,
}

impl Conn {
    /// Connects, says HELLO and waits for OK.
    fn open(
        addr: SocketAddr,
        session: &str,
        tenant: &str,
        priority: Priority,
        tx: mpsc::Sender<Arrival>,
    ) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut input = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        let mut out = BufWriter::new(stream);
        let hello = Request::Hello {
            session: session.into(),
            tenant: tenant.into(),
            priority,
            deadline_ms: 0,
        };
        write_frame(&mut out, &hello.encode()).map_err(|e| format!("HELLO: {e}"))?;
        match read_frame(&mut input).map_err(|e| e.to_string())?.map(|p| Response::parse(&p)) {
            Some(Ok(Response::Ok { .. })) => {}
            other => return Err(format!("HELLO answered with {other:?}")),
        }
        let reader = std::thread::spawn(move || -> Result<(), String> {
            loop {
                let Some(payload) = read_frame(&mut input).map_err(|e| e.to_string())? else {
                    return Ok(());
                };
                let at = Instant::now();
                let resp = Response::parse(&payload).map_err(|e| e.to_string())?;
                if matches!(resp, Response::Done { .. }) || tx.send(Arrival { at, resp }).is_err() {
                    return Ok(());
                }
            }
        });
        Ok(Conn { out, reader: Some(reader) })
    }

    /// Says BYE: the server answers the pairs in flight, then DONE.
    fn bye(&mut self) -> Result<(), String> {
        write_frame(&mut self.out, &Request::Bye.encode()).map_err(|e| format!("BYE: {e}"))
    }

    /// Says BYE and waits for the reader to see DONE.
    fn close(mut self) -> Result<(), String> {
        self.bye()?;
        self.join()
    }

    /// Waits for the reader to see DONE, after [`Conn::bye`].
    fn join(mut self) -> Result<(), String> {
        match self.reader.take().map(JoinHandle::join) {
            Some(Ok(r)) => r,
            Some(Err(_)) => Err("reader thread panicked".into()),
            None => Ok(()),
        }
    }
}

/// How the server answered one pair.
enum Answer {
    Correct,
    Wrong,
    Refused,
    Failed,
}

/// Checks an answer frame against the golden alignment of its pair.
fn classify(pool: &Pool, resp: Response) -> Result<(usize, Answer), String> {
    match resp {
        Response::Result { id, score, cigar, resumed } => {
            let (gs, gc) = &pool.golden[id % POOL];
            if score == *gs && cigar == *gc && !resumed {
                Ok((id, Answer::Correct))
            } else {
                eprintln!("WRONG pair {id}: got {score} {cigar}, golden {gs} {gc}");
                Ok((id, Answer::Wrong))
            }
        }
        Response::Reject { id, .. } => Ok((id, Answer::Refused)),
        Response::Fail { id, .. } => Ok((id, Answer::Failed)),
        Response::Err(m) => Err(format!("server error frame: {m}")),
        other => Err(format!("unexpected frame {other:?}")),
    }
}

/// What one fixed-rate phase produced, by schedule position.
struct Phase {
    first_id: usize,
    dues: Vec<Instant>,
    /// Latency (ms) per scheduled pair: `Some` for a correct RESULT.
    latency_ms: Vec<Option<f64>>,
    wrong: usize,
    lag_ms: Vec<f64>,
    /// Pair ids in the order their answers arrived.
    order: Vec<usize>,
    /// When each pair's frame was written; kept by the traced run only.
    send_spans: Vec<(Instant, Instant)>,
}

impl Phase {
    fn ok(&self) -> usize {
        self.latency_ms.iter().flatten().count()
    }

    /// Latencies with every failed, refused or missing pair counted as
    /// missing any limit.
    fn all_latencies(&self) -> Vec<f64> {
        self.latency_ms.iter().map(|l| l.unwrap_or(f64::INFINITY)).collect()
    }

    fn round(&self) -> Round {
        let all = Samples::new(self.all_latencies());
        Round {
            sent: all.len(),
            ok: self.ok(),
            wrong: self.wrong,
            p50: all.quantile(0.5),
            p99: all.quantile(0.99),
        }
    }
}

/// A phase's summary, which outlives its per-pair records: the untraced
/// run keeps no per-pair record of a busy phase, so the busy rounds add
/// no benchmark bookkeeping to the peak RSS.
#[derive(Clone, Copy)]
struct Round {
    sent: usize,
    ok: usize,
    wrong: usize,
    p50: Option<f64>,
    p99: Option<f64>,
}

/// What the closed-loop capacity run produced.
#[derive(Default)]
struct Saturation {
    windows: Vec<Window>,
    sent: usize,
    answered: usize,
    failed: usize,
    wrong: usize,
}

/// The `hi` and `norm` sessions a phase sends on, one connection each.
/// After [`SESSION_PAIRS`] pairs the phase moves on to fresh sessions
/// and says BYE to the old ones, so no session's replay table (and so
/// no peak RSS) grows with the length of the run or the server's speed.
struct Sessions {
    live: Vec<Conn>,
    retired: Vec<Conn>,
    sent: usize,
}

/// Sends phases to one server.
struct LoadGen<'a> {
    pool: &'a Pool,
    addr: SocketAddr,
    tx: mpsc::Sender<Arrival>,
    rx: mpsc::Receiver<Arrival>,
    next_id: usize,
    session_sets: usize,
    rng: SplitMix,
    trace: bool,
}

impl LoadGen<'_> {
    /// Opens fresh `hi` and `norm` sessions.
    fn hello(&mut self) -> Result<Vec<Conn>, String> {
        self.session_sets += 1;
        let mut conns = Vec::with_capacity(2);
        for (tenant, priority) in [("hi", Priority::High), ("norm", Priority::Normal)] {
            let session = format!("bench-{tenant}-{}", self.session_sets);
            conns.push(Conn::open(self.addr, &session, tenant, priority, self.tx.clone())?);
        }
        Ok(conns)
    }

    fn open(&mut self) -> Result<Sessions, String> {
        Ok(Sessions { live: self.hello()?, retired: Vec::new(), sent: 0 })
    }

    /// Says BYE to every session of the phase and waits for their DONE.
    fn close(&mut self, s: Sessions) -> Result<(), String> {
        let Sessions { mut live, retired, .. } = s;
        for c in &mut live {
            c.bye()?;
        }
        retired.into_iter().chain(live).try_for_each(Conn::join)
    }

    /// The connection of the next pair: `norm` with probability 0.75.
    fn pick(&mut self) -> usize {
        usize::from(self.rng.unit() > HI_SHARE)
    }

    /// Sends pair `id` on connection `conn` (0 `hi`, 1 `norm`).
    fn send(&mut self, s: &mut Sessions, conn: usize, id: usize) -> Result<(), String> {
        if s.sent == SESSION_PAIRS {
            for c in &mut s.live {
                c.bye()?;
            }
            let fresh = self.hello()?;
            s.retired.extend(std::mem::replace(&mut s.live, fresh));
            s.sent = 0;
        }
        s.sent += 1;
        let (q, r) = &self.pool.texts[id % POOL];
        let req = Request::Pair { id, query: q.clone(), reference: r.clone() };
        write_frame(&mut s.live[conn].out, &req.encode())
            .map_err(|e| format!("send pair {id}: {e}"))
    }

    /// Sends a Poisson stream at `rate` for `seconds`, each pair stamped
    /// at its scheduled instant, then collects every answer.
    fn phase(&mut self, rate: f64, seconds: f64) -> Result<Phase, String> {
        let mut offsets = Vec::new();
        let mut t = self.rng.exp_gap(rate);
        while t < seconds {
            let conn = self.pick();
            offsets.push((t, conn));
            t += self.rng.exp_gap(rate);
        }
        let n = offsets.len();
        let first_id = self.next_id;
        self.next_id += n;
        let mut sessions = self.open()?;
        let start = Instant::now() + Duration::from_millis(2);
        let mut dues = Vec::with_capacity(n);
        let mut lag_ms = Vec::with_capacity(n);
        let mut send_spans = Vec::new();
        for (k, &(offset, conn)) in offsets.iter().enumerate() {
            let due = start + Duration::from_secs_f64(offset);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            self.send(&mut sessions, conn, first_id + k)?;
            dues.push(due);
            lag_ms.push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
            if self.trace {
                send_spans.push((sent, Instant::now()));
            }
        }

        let mut phase = Phase {
            first_id,
            dues,
            latency_ms: vec![None; n],
            wrong: 0,
            lag_ms,
            order: Vec::with_capacity(n),
            send_spans,
        };
        let mut answered = vec![false; n];
        let mut remaining = n;
        let give_up = Instant::now() + ANSWER_WAIT;
        while remaining > 0 {
            let wait = give_up.saturating_duration_since(Instant::now());
            let Ok(Arrival { at, resp }) = self.rx.recv_timeout(wait) else { break };
            let (id, answer) = classify(self.pool, resp)?;
            let k = id.checked_sub(first_id).filter(|&k| k < n);
            let Some(k) = k.filter(|&k| !answered[k]) else {
                return Err(format!("answer for pair {id} outside its phase or repeated"));
            };
            answered[k] = true;
            remaining -= 1;
            phase.order.push(id);
            match answer {
                Answer::Correct => {
                    let ms = at.saturating_duration_since(phase.dues[k]).as_secs_f64() * 1e3;
                    phase.latency_ms[k] = Some(ms);
                }
                Answer::Wrong => phase.wrong += 1,
                // Counted with the unanswered pairs, as not correct.
                Answer::Refused | Answer::Failed => {}
            }
        }
        self.close(sessions)?;
        Ok(phase)
    }

    /// Keeps [`SATURATION_WINDOW`] pairs in flight for `seconds`: each
    /// answer sends the next pair. A bounded window cannot build a
    /// backlog, so the completion rate is the rate the server sustains.
    /// Answers are counted in [`SATURATION_WINDOWS`] windows of
    /// completion time.
    fn saturate(&mut self, seconds: f64) -> Result<Saturation, String> {
        let mut sessions = self.open()?;
        let mut sat = Saturation::default();
        // Send instant of every pair in flight, by id.
        let mut in_flight: HashMap<usize, Instant> = HashMap::new();
        let send_next = |gen: &mut Self, s: &mut Sessions, in_flight: &mut HashMap<_, _>| {
            let conn = gen.pick();
            let id = gen.next_id;
            gen.next_id += 1;
            in_flight.insert(id, Instant::now());
            gen.send(s, conn, id)
        };
        for _ in 0..SATURATION_WINDOW {
            send_next(self, &mut sessions, &mut in_flight)?;
        }
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(seconds);
        let mut cutter = WindowCutter::new(seconds / SATURATION_WINDOWS as f64, seconds);
        while !in_flight.is_empty() {
            let Ok(Arrival { at, resp }) = self.rx.recv_timeout(ANSWER_WAIT) else { break };
            let (id, answer) = classify(self.pool, resp)?;
            let Some(sent) = in_flight.remove(&id) else {
                return Err(format!("answer for pair {id} not in flight"));
            };
            sat.answered += 1;
            let done = match answer {
                Answer::Correct => Some((
                    self.pool.cells[id % POOL],
                    at.saturating_duration_since(sent).as_secs_f64() * 1e3,
                )),
                Answer::Wrong => {
                    sat.wrong += 1;
                    None
                }
                Answer::Refused | Answer::Failed => {
                    sat.failed += 1;
                    None
                }
            };
            cutter.answer(at.saturating_duration_since(start).as_secs_f64(), done);
            if Instant::now() < end {
                send_next(self, &mut sessions, &mut in_flight)?;
            }
        }
        sat.failed += in_flight.len();
        sat.sent = sat.answered + in_flight.len();
        sat.windows = cutter.windows;
        self.close(sessions)?;
        Ok(sat)
    }
}

fn server_config(dir: &Path, seed: u64) -> ServerConfig {
    ServerConfig {
        exec: ExecutorConfig {
            jobs: 2,
            // Deep enough that a burst of Poisson arrivals below capacity
            // queues (and shows in latency) instead of being refused.
            queue_cap: 1024,
            breaker: Some(BreakerConfig::default()),
            audit: Some(AuditConfig { rate: AUDIT_RATE, seed }),
            ..ExecutorConfig::default()
        },
        // Buckets well above any offered rate: admission runs on every
        // pair but never refuses.
        policy: TenantPolicy { rate: 1.0e6, burst: 1.0e6 },
        // Likewise per connection: a fsync stall below capacity delays
        // acks rather than refusing pairs as a slow reader.
        max_outstanding: 4096,
        checkpoint_dir: Some(dir.to_path_buf()),
        shards: 2,
        steal: true,
        ..ServerConfig::default()
    }
}

/// Binds a server and, `pause` later, opens a first session. The set-up
/// time is the bind plus the first HELLO's round trip. The pause is not
/// timed: it lets the first connect find the accept loop at a random
/// point of its polling, as a client that comes later would, instead
/// of racing the loop's first poll.
fn bind(
    dir: &Path,
    seed: u64,
    tx: mpsc::Sender<Arrival>,
    pause: Duration,
) -> Result<(ServerHandle, f64), String> {
    let dev =
        SmxDevice::new(AlignmentConfig::DnaEdit, layers::WORKERS).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let handle =
        Server::bind(dev, server_config(dir, seed), "127.0.0.1:0").map_err(|e| e.to_string())?;
    let bound = t0.elapsed();
    std::thread::sleep(pause);
    let t1 = Instant::now();
    let first = Conn::open(handle.addr(), "bench-setup", "hi", Priority::High, tx)?;
    let setup = (bound + t1.elapsed()).as_secs_f64();
    first.close()?;
    Ok((handle, setup))
}

fn stats_counter(stats: &str, key: &str) -> Option<u64> {
    stats.split_whitespace().find_map(|w| w.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
}

pub fn run(
    seed: u64,
    seconds: f64,
    work: &Path,
    tracer: Option<&mut Tracer>,
) -> Result<Report, String> {
    let mut report = Report::default();
    let pool = Pool::generate(seed);

    // Set-up: bind + first HELLO OK. The first server stays; the
    // others are bound and drained between the phases.
    let (tx, rx) = mpsc::channel();
    let mut pauses = SplitMix::new(seed ^ 0xb1d);
    let mut pause = move || Duration::from_secs_f64(0.005 * (1.0 + pauses.unit()));
    let dir = work.join("ckpt");
    let (handle, first) = bind(&dir, seed, tx.clone(), pause())?;
    let mut setups = vec![first];
    let setup_tx = tx.clone();
    let mut set_up_more = |setups: &mut Vec<f64>| -> Result<(), String> {
        for _ in 0..SETUP_REPS {
            let extra = work.join(format!("ckpt-{}", setups.len()));
            let (h, s) = bind(&extra, seed, setup_tx.clone(), pause())?;
            setups.push(s);
            let _ = h.drain();
        }
        Ok(())
    };
    let mut load = LoadGen {
        pool: &pool,
        addr: handle.addr(),
        tx,
        rx,
        next_id: 0,
        session_sets: 0,
        rng: SplitMix::new(seed ^ 0x5e7e),
        trace: tracer.is_some(),
    };

    // Warm caches and lazy set-up; checked but not timed.
    let warm = load.phase(LIGHT_PER_S, 0.05 * seconds)?;
    let mut lags = Vec::new();
    // The light rounds come first, before the capacity run's and the
    // busy rounds' writes leave the disk behind its fsyncs.
    let mut light = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        set_up_more(&mut setups)?;
        let l = load.phase(LIGHT_PER_S, 0.2 * seconds / ROUNDS as f64)?;
        lags.extend_from_slice(&l.lag_ms);
        light.push(l);
    }

    set_up_more(&mut setups)?;
    let sat = load.saturate(0.45 * seconds)?;
    let quiet = stats::quiet(&sat.windows).ok_or("too few capacity windows")?;
    let capacity = quiet.units_per_s;
    let sat_p99 = quiet.latencies.quantile(0.99);
    let rates = Samples::new(sat.windows.iter().map(|w| w.units as f64 / w.wall_s).collect());
    println!(
        "# capacity: {SATURATION_WINDOW} pairs in flight, {} windows (pairs/s p10 {:.0?} p50 {:.0?}), quiet {} at {capacity:.1} pairs/s, latency ms {}",
        sat.windows.len(),
        rates.quantile(0.1),
        rates.quantile(0.5),
        quiet.windows,
        quiet.latencies.describe()
    );
    if !sat_p99.is_some_and(|p99| p99 <= P99_LIMIT_MS) {
        report
            .check_failures
            .push(format!("capacity run p99 {sat_p99:?} ms is not within {P99_LIMIT_MS} ms"));
    }

    let mut busy_rounds = Vec::with_capacity(ROUNDS);
    // The busy phases' per-pair records, kept for the traced replay only.
    let mut busy = Vec::new();
    let mut busy_cpu = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let cpu = CpuWindow::start()?;
        let b = load.phase(BUSY_PER_S, 0.25 * seconds / ROUNDS as f64)?;
        busy_cpu.push(cpu.stop()?.0 * 1e6 / b.ok().max(1) as f64);
        lags.extend_from_slice(&b.lag_ms);
        busy_rounds.push(b.round());
        if tracer.is_some() {
            busy.push(b);
        }
    }
    let light_rounds: Vec<Round> = light.iter().map(Phase::round).collect();

    let audits = stats_counter(&handle.stats_text(), "audits_run").unwrap_or(0);
    let drained = handle.drain();
    report.set("setup_s", stats::median(&setups).unwrap_or(0.0), "s", setups.len());

    report.wrong += (sat.wrong + warm.wrong) as u64;
    report.attempted += sat.sent as u64;
    report.failed += (sat.failed + sat.wrong) as u64;
    for r in light_rounds.iter().chain(&busy_rounds) {
        report.wrong += r.wrong as u64;
        report.attempted += r.sent as u64;
        report.failed += (r.sent - r.ok) as u64;
    }

    report.set("capacity_pairs_per_s", capacity, "1/s", quiet.windows);
    report.set("gcups", quiet.gcups, "GCUPS", quiet.windows);
    let busy_ok: usize = busy_rounds.iter().map(|r| r.ok).sum();
    report.set("cpu_us_per_pair", stats::median(&busy_cpu).unwrap_or(0.0), "us", busy_ok);

    // Light latency over the calm tenth of its windows; the busy
    // figures are the medians of the per-round values.
    let light_windows: Vec<Vec<f64>> = light
        .iter()
        .flat_map(|p| {
            let all = p.all_latencies();
            all.chunks_exact(LIGHT_WINDOW).map(<[f64]>::to_vec).collect::<Vec<_>>()
        })
        .collect();
    let calm = stats::calm(&light_windows).ok_or("too few light windows")?;
    report.set(
        "p50_ms.light",
        calm.quantile(0.5).ok_or("light p50 unsupported")?,
        "ms",
        calm.len(),
    );
    if let Some(p99) = calm.quantile(0.99) {
        report.set("p99_ms.light", p99, "ms", calm.len());
    }
    for (name, rate, rounds) in
        [("light", LIGHT_PER_S, &light_rounds), ("busy", BUSY_PER_S, &busy_rounds)]
    {
        let n: usize = rounds.iter().map(|r| r.sent).sum();
        let p50s: Vec<f64> = rounds.iter().filter_map(|r| r.p50).collect();
        let p99s: Vec<f64> = rounds.iter().filter_map(|r| r.p99).collect();
        if name == "busy" && p50s.len() == ROUNDS && p99s.len() == ROUNDS {
            report.set("p50_ms.busy", stats::median(&p50s).unwrap_or(0.0), "ms", n);
            report.set("p99_ms.busy", stats::median(&p99s).unwrap_or(0.0), "ms", n);
        }
        println!(
            "# {name}: offered {rate:.0}/s, {n} pairs; per-round latency ms p50 {p50s:.3?} p99 {p99s:.3?}"
        );
    }
    let lags = Samples::new(lags);
    println!("# generator lag ms {}", lags.describe());

    let rejected: u64 = drained.per_tenant.iter().map(|(_, c)| c.rejected()).sum();
    let records: usize = std::fs::read_dir(&dir)
        .map_err(|e| e.to_string())?
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "ckpt"))
        .filter(|e| e.file_name() != "replay.ckpt")
        .map(|e| Manifest::load(&e.path()).map(|m| m.completed.len()))
        .sum::<Result<usize, _>>()
        .map_err(|e| e.to_string())?;
    println!(
        "# server: admitted={} completed={} rejected={rejected} audits={audits} records={records} max_queue_depth={}",
        drained.totals.admitted, drained.totals.completed, drained.totals.max_queue_depth
    );

    if let Some(tr) = tracer {
        if let Some(v) = lags.quantile(0.99) {
            report.set("gen.lag_ms.p99", v, "ms", lags.len());
        }
        report.set("tenant.rejected", rejected as f64, "count", drained.per_tenant.len());
        report.set("server.max_queue_depth", drained.totals.max_queue_depth as f64, "count", 1);
        let stolen: u64 = drained.per_shard.iter().map(|s| s.stolen_by).sum();
        report.set("server.stolen", stolen as f64, "count", drained.per_shard.len());
        report.set("server.retries", drained.totals.retries as f64, "count", 1);
        report.set("server.software_pairs", drained.totals.software_pairs as f64, "count", 1);
        report.set("ckpt.records", records as f64, "count", 1);
        report.set("pool.audits", audits as f64, "count", 1);
        for p in light.iter().chain(&busy) {
            for (k, &(s, e)) in p.send_spans.iter().enumerate() {
                tr.record("client.send", ROOT, (p.first_id + k) as u64, s, e);
            }
        }
        replay(tr, &pool, &dir, seed, &light, &busy, &mut report)?;
    }
    let _ = std::fs::remove_dir_all(work);
    Ok(report)
}

/// Replays the light and busy pairs, in the order the server answered
/// them, through each layer's public calls, and derives the residual:
/// client p50 minus the sum of the replayed layers' p50s.
fn replay(
    tr: &mut Tracer,
    pool: &Pool,
    dir: &Path,
    seed: u64,
    light: &[Phase],
    busy: &[Phase],
    report: &mut Report,
) -> Result<(), String> {
    let mut align = AlignReplay::new(AlignmentConfig::DnaEdit)?;
    let mut front = FrontReplay::new(TenantPolicy { rate: 1.0e6, burst: 1.0e6 }, dir)?;
    let tiles0 = align.recompute_tiles();
    let mut bytes = 0usize;
    let mut index = 0usize;
    for p in light.iter().chain(busy) {
        for &id in p.order.iter().take(REPLAY_PER_PHASE) {
            let k = id - p.first_id;
            let pair = id as u64;
            let Some(client_ms) = p.latency_ms[k] else { continue };
            tr.record(
                "client.pair",
                ROOT,
                pair,
                p.dues[k],
                p.dues[k] + Duration::from_secs_f64(client_ms / 1e3),
            );
            let (q, r) = &pool.seqs[id % POOL];
            let frame = layers::request_frame(id, q, r)?;
            let span = tr.open("replay.pair", ROOT, pair);
            front.decode(tr, span, pair, &frame)?;
            front.admit(tr, span, pair)?;
            let aln = align.align(tr, span, pair, q, r)?;
            if layers::audit_samples(seed, AUDIT_RATE, index) {
                align.audit(tr, span, pair, &aln, q, r)?;
            }
            front.record(tr, span, pair, &aln)?;
            let out = front.encode(tr, span, pair, &aln)?;
            tr.close(span);
            bytes += frame.len() + out;
            index += 1;
        }
    }
    report.set("proto.bytes_per_pair", bytes as f64 / index.max(1) as f64, "bytes", index);
    report.set("coproc.recompute_tiles", (align.recompute_tiles() - tiles0) as f64, "count", index);
    layers::set_layer_metrics(tr, report);
    let score = tr.durations_us("simd.score");
    if let Some(v) = score.quantile(0.5) {
        report.set("simd.score_us.p50.64bp", v, "us", score.len());
    }

    // Residual per rate: the client's p50 minus the replayed layers on
    // that rate's pairs. Negative means the attribution is wrong.
    for (name, phases) in [("light", light), ("busy", busy)] {
        let in_rate = |pair: u64| {
            phases.iter().any(|p| {
                (p.first_id as u64..(p.first_id + p.latency_ms.len()) as u64).contains(&pair)
            })
        };
        let p50s: Vec<f64> =
            phases.iter().filter_map(|p| Samples::new(p.all_latencies()).quantile(0.5)).collect();
        let Some(client_ms) = stats::median(&p50s) else { continue };
        let mut layer_sum = 0.0;
        for layer in
            ["proto.decode", "tenant.admit", "orchestrator.align", "ckpt.record", "proto.encode"]
        {
            layer_sum += tr.durations_us_where(layer, in_rate).quantile(0.5).unwrap_or(0.0);
        }
        let residual = client_ms * 1e3 - layer_sum;
        let n: usize = phases.iter().map(Phase::ok).sum();
        println!(
            "# residual {name}: client p50 {:.1} us - layers {layer_sum:.1} us = {residual:.1} us",
            client_ms * 1e3
        );
        report.set(&format!("server.residual_us.p50.{name}"), residual, "us", n);
        if residual < 0.0 {
            report
                .check_failures
                .push(format!("server.residual_us.p50.{name} is negative ({residual:.1} us)"));
        }
    }
    Ok(())
}
