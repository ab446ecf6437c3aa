//! Hardened alignment-as-a-service front door (DESIGN.md §8).
//!
//! [`Server`] turns the batch-oriented resilience stack — device pool,
//! per-device breakers, audit scoreboard, hedging, quarantine — into a
//! long-running framed-TCP service. The pairs run on the same executor
//! runtime (`runtime`) the batch executor starts, so every defense is
//! reused as is; the front door adds the concerns that only exist once
//! the work arrives over a socket from parties that do not coordinate:
//!
//! * **Admission control** — per-tenant token buckets and priority
//!   classes in front of the bounded work queue. Every refusal is a
//!   typed `REJECT` with a retry-after hint; a client never hangs
//!   without an answer.
//! * **Deadline propagation** — the client's per-pair deadline is fixed
//!   at admission as an absolute instant, re-checked at dequeue (a pair
//!   that expired while queued never touches a device), and forked into
//!   the [`CancelToken`] the coprocessor checks at tile boundaries.
//! * **Brownout** — overload degrades service in a ladder rather than
//!   collapsing it: first audit sampling and hedging are shed, then
//!   low-priority pairs run on the SIMD software baseline directly, and
//!   only near saturation is low-priority work refused outright.
//! * **Graceful drain** — on drain the listener closes, in-flight pairs
//!   flush through their (fsync-per-record) checkpoint manifests, every
//!   session gets a `DONE` summary, and the caller receives per-tenant
//!   counts.
//! * **Crash consistency** — a `RESULT` is written only *after* the
//!   pair's manifest record is durable, so `kill -9` at any instant
//!   leaves no pair acked-but-lost: resuming the session replays every
//!   acked pair byte-identically and recomputes nothing else.
//!
//! The byte-identity invariant carries over verbatim: admission,
//! brownout, retries, and routing decide *where* and *whether* a pair
//! runs — never *what* it computes.

pub mod proto;
pub(crate) mod runtime;
pub mod session;
pub mod tenant;

use std::io::{BufReader, BufWriter, Write as _};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use smx_align_core::{AlignError, Alphabet, Sequence};
use smx_coproc::control::CancelToken;

use crate::orchestrator::SmxDevice;
use crate::pool::DeviceStats;
use crate::service::{AdmissionPolicy, ExecutorConfig};

use proto::{read_frame, write_frame, FailKind, ProtoError, RejectReason, Request, Response};
use runtime::{
    Completion, Job, Policy, Runtime, Shard, STATE_CRASHED, STATE_DRAINING, STATE_RUNNING,
};
use session::{Session, SessionStore};
use tenant::{BrownoutConfig, BrownoutLevel, Priority, TenantCounters, TenantPolicy, TenantTable};

/// Bounded server-side retry budget for recoverable device faults.
/// Retries go back through the normal dispatch seam, so the breaker and
/// quarantine see every attempt — the budget bounds persistence, it does
/// not bypass the defenses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryConfig {
    /// Extra attempts after the first (0 disables retrying).
    pub attempts: u32,
    /// Base backoff between attempts; attempt `k` sleeps `k * backoff`,
    /// clipped to the pair's remaining deadline.
    pub backoff: Duration,
}

impl Default for RetryConfig {
    fn default() -> RetryConfig {
        RetryConfig { attempts: 2, backoff: Duration::from_millis(2) }
    }
}

/// The supervisor's wedge-detection and containment budget.
///
/// A shard is *stagnant* when neither its heartbeat nor its
/// completion counter moved across `stale_intervals` consecutive
/// samples — the chaos storm's "no progress" watchdog criterion,
/// made unconditional because a healthy worker beats even while
/// idle (an idle wedged shard would otherwise black-hole every
/// pair later dispatched to it). The
/// containment ladder is: mark degraded (steal-only, no new
/// dispatch) → drain-and-restart in place → permanent quarantine
/// once `max_restarts` in-place restarts have been burned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Time between supervisor samples of every shard's progress.
    pub interval: Duration,
    /// Consecutive no-progress samples before the ladder advances a
    /// rung. The product `interval * stale_intervals` is the shard's
    /// heartbeat budget and must exceed the worst-case single-pair
    /// latency, or a shard busy with one huge pair reads as wedged.
    pub stale_intervals: u32,
    /// In-place restarts granted before the shard is quarantined for
    /// the life of the process.
    pub max_restarts: u32,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            interval: Duration::from_millis(50),
            stale_intervals: 8,
            max_restarts: 2,
        }
    }
}

/// Server tuning on top of the executor configuration it fronts.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The resilience stack: jobs, queue capacity, breaker, audit,
    /// hedging, quarantine, and the *default* per-pair deadline (used
    /// when a session's `HELLO` carries deadline 0).
    pub exec: ExecutorConfig,
    /// Token-bucket policy handed to every tenant.
    pub policy: TenantPolicy,
    /// Brownout ladder thresholds over queue occupancy.
    pub brownout: BrownoutConfig,
    /// Bounded retry/backoff budget for recoverable faults.
    pub retry: RetryConfig,
    /// Maximum simultaneous connections; excess connects get a typed
    /// `ERR` and are closed.
    pub max_conns: usize,
    /// Per-connection in-flight cap: a slow reader that lets this many
    /// pairs pile up gets `REJECT overloaded` instead of unbounded
    /// server-side buffering.
    pub max_outstanding: usize,
    /// Directory for per-session checkpoint manifests (`None` = all
    /// sessions ephemeral).
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume manifests left by a previous process (the post-crash
    /// restart path). Without it, a fresh process truncates them.
    pub resume_sessions: bool,
    /// Independent executor shards the fleet splits into. Each shard
    /// owns a disjoint slice of the worker threads and device pool and
    /// its own bounded queue, so one wedged shard is a capacity dip,
    /// not an outage. `1` reproduces the single-executor server.
    pub shards: usize,
    /// Whether idle workers steal queued pairs from overloaded or
    /// degraded sibling shards.
    pub steal: bool,
    /// Wedge-detection and containment budget for the supervisor.
    pub supervisor: SupervisorConfig,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            exec: ExecutorConfig::default(),
            policy: TenantPolicy::default(),
            brownout: BrownoutConfig::default(),
            retry: RetryConfig::default(),
            max_conns: 64,
            max_outstanding: 256,
            checkpoint_dir: None,
            resume_sessions: false,
            shards: 1,
            steal: true,
            supervisor: SupervisorConfig::default(),
        }
    }
}

/// Global service counters, mirroring the batch `ServiceStats` for the
/// open-ended server case.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerCounters {
    /// Pairs admitted to the work queue.
    pub admitted: u64,
    /// Pairs that aligned.
    pub completed: u64,
    /// Pairs that failed after admission.
    pub failed: u64,
    /// Typed rejections of every flavor.
    pub rejected: u64,
    /// Pairs replayed from session manifests.
    pub resumed: u64,
    /// Failures from an expired deadline (queued or at tile boundary).
    pub deadline_exceeded: u64,
    /// Failures from cancellation (crash/shutdown).
    pub cancelled: u64,
    /// Pairs served on the software baseline because brownout degraded
    /// their priority class.
    pub degraded_software: u64,
    /// Retry attempts spent on recoverable faults.
    pub retries: u64,
    /// Pairs that took the device path (incl. probes).
    pub device_pairs: u64,
    /// Pairs the breaker/pool routed to the software baseline.
    pub software_pairs: u64,
    /// High-water mark of the work queue.
    pub max_queue_depth: usize,
}

/// Per-tenant counts handed back when the server drains.
#[derive(Debug, Clone)]
pub struct DrainReport {
    /// Tenants in name order with their final counters.
    pub per_tenant: Vec<(String, TenantCounters)>,
    /// Global counters at drain.
    pub totals: ServerCounters,
    /// Per-shard counters at drain, in shard-id order.
    pub per_shard: Vec<ShardSnapshot>,
}

/// One shard's observable state: the supervisor's view, exported to
/// `STATS`, the drain report, and the storm harnesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Shard id (also the dispatcher's home-shard index).
    pub id: usize,
    /// Lifecycle state: `live`, `degraded`, `restarting`, `quarantined`.
    pub state: &'static str,
    /// Pairs dispatched to this shard as its home.
    pub dispatched: u64,
    /// Pairs completed by this shard's workers (own or stolen).
    pub completed: u64,
    /// Queued pairs other shards stole from this one.
    pub stolen_from: u64,
    /// Queued pairs this shard's workers stole from siblings.
    pub stolen_by: u64,
    /// In-place restarts the supervisor executed on this shard.
    pub restarts: u64,
    /// Completed wedge→live failovers (restart or self-heal).
    pub failovers: u64,
    /// Duration of the most recent failover, in milliseconds.
    pub last_failover_ms: u64,
    /// Current queue depth.
    pub queue_depth: usize,
    /// Queue high-water mark.
    pub max_queue_depth: usize,
}

/// Everything the per-connection writer thread serializes to the socket.
enum WriterMsg {
    /// A pre-built response (OK / REJECT / STATS / ERR / FAIL-at-admission).
    Frame(Response),
    /// Replay pair `id` from the session manifest (already durable).
    Replay(usize),
    /// A worker completion: record durably, then ack.
    Done(Completion),
    /// Flush outstanding pairs, send `DONE`, and hang up.
    Bye,
}

impl From<Completion> for WriterMsg {
    fn from(c: Completion) -> WriterMsg {
        WriterMsg::Done(c)
    }
}

/// Re-locks a mutex whose critical sections only mutate self-contained
/// counter/registry state (queue depths, stats counters, tenant tables,
/// join-handle lists). A panicking holder cannot leave these in a state
/// worth failing other connections over — every update is a single
/// field write or push — so poison is stripped rather than propagated.
/// The session store is deliberately NOT accessed through this helper:
/// its poison is handled as a typed connection teardown (see
/// [`Shared::sessions`]).
fn relock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The dispatcher's home-shard hash: FNV-1a over `(tenant, pair id)`,
/// a pure function so a tenant's pairs land on a stable shard and any
/// replayed run dispatches identically.
fn home_shard(tenant: &str, id: usize, shards: usize) -> usize {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in tenant.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    for b in (id as u64).to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    (h % shards.max(1) as u64) as usize
}

/// State shared by the accept loop and the connection threads: the
/// front door's own registries on top of the executor runtime.
struct Shared {
    cfg: ServerConfig,
    alphabet: Alphabet,
    rt: Arc<Runtime<WriterMsg>>,
    tenants: Mutex<TenantTable>,
    sessions: Mutex<SessionStore>,
    /// Monotone pair sequence for deterministic audit sampling, assigned
    /// at admission.
    pair_seq: AtomicUsize,
    conns: AtomicUsize,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    /// The `/stats` text: global counters, brownout, pool devices, and
    /// one line per tenant — everything an operator needs to see which
    /// rung of the degradation ladder the service is standing on.
    fn stats_text(&self) -> String {
        use std::fmt::Write as _;
        let rt = &self.rt;
        let c = *relock(&rt.counters);
        let state = match self.rt.state() {
            STATE_RUNNING => "running",
            STATE_DRAINING => "draining",
            _ => "crashed",
        };
        let level = rt.brownout();
        let peak = rt.brownout_peak.load(Ordering::Relaxed);
        let mut depth = 0;
        let mut cap = 0;
        let mut max_depth = 0;
        for shard in &rt.shards {
            depth += shard.queue.depth();
            cap += shard.queue.cap;
            max_depth = max_depth.max(shard.queue.max_depth());
        }
        let mut pool_counters = crate::pool::PoolCounters::default();
        let mut devices = Vec::new();
        for shard in &rt.shards {
            let (d, c) = shard.pool.snapshot();
            devices.extend(d);
            pool_counters.audits_run += c.audits_run;
            pool_counters.integrity_recomputed += c.integrity_recomputed;
            pool_counters.hedges_launched += c.hedges_launched;
            pool_counters.hedges_won += c.hedges_won;
        }
        let mut s = String::new();
        let _ = writeln!(s, "state: {state}");
        let _ = writeln!(s, "connections: {}", self.conns.load(Ordering::SeqCst));
        let _ = writeln!(s, "queue_depth: {depth}/{cap} (max {max_depth})");
        let _ = writeln!(s, "brownout: {level} (peak rank {peak})");
        let _ = writeln!(
            s,
            "pairs: admitted={} completed={} failed={} rejected={} resumed={}",
            c.admitted, c.completed, c.failed, c.rejected, c.resumed
        );
        let _ = writeln!(
            s,
            "failures: deadline_exceeded={} cancelled={}",
            c.deadline_exceeded, c.cancelled
        );
        let _ = writeln!(
            s,
            "routing: device_pairs={} software_pairs={} degraded_software={} retries={}",
            c.device_pairs, c.software_pairs, c.degraded_software, c.retries
        );
        let _ = writeln!(
            s,
            "defenses: audits_run={} integrity_recomputed={} hedges_launched={} hedges_won={}",
            pool_counters.audits_run,
            pool_counters.integrity_recomputed,
            pool_counters.hedges_launched,
            pool_counters.hedges_won
        );
        for shard in &rt.shards {
            let _ = writeln!(s, "shard {}: {}", shard.id, shard_line(&shard.snapshot()));
        }
        for (id, d) in devices.iter().enumerate() {
            let _ = writeln!(s, "device {id}: {}", device_line(d));
        }
        for (name, t) in relock(&self.tenants).sorted() {
            let _ =
                writeln!(s, "tenant {name}: priority={} {}", t.priority, tenant_line(&t.counters));
        }
        s
    }

    fn tenant_bump<F: FnOnce(&mut TenantCounters)>(&self, tenant: &str, f: F) {
        if let Some(c) = relock(&self.tenants).counters_mut(tenant) {
            f(c);
        }
    }

    /// The session store, with poison surfaced as a typed error.
    ///
    /// Unlike the counter/registry locks (see [`relock`]), the session
    /// store backs the crash-consistency guarantee: a holder that
    /// panicked mid-`open`/`release` may have left an `active` entry or
    /// a manifest writer half-registered, and silently recovering could
    /// hand two connections the same session manifest. Callers turn
    /// this error into an `ERR` frame and tear the connection down.
    fn sessions(&self) -> Result<std::sync::MutexGuard<'_, SessionStore>, AlignError> {
        self.sessions.lock().map_err(|_| AlignError::Internal("session store lock poisoned".into()))
    }
}

fn shard_line(s: &ShardSnapshot) -> String {
    format!(
        "state={} dispatched={} completed={} stolen_from={} stolen_by={} \
         restarts={} failovers={} last_failover_ms={} queue_depth={} (max {})",
        s.state,
        s.dispatched,
        s.completed,
        s.stolen_from,
        s.stolen_by,
        s.restarts,
        s.failovers,
        s.last_failover_ms,
        s.queue_depth,
        s.max_queue_depth
    )
}

fn device_line(d: &DeviceStats) -> String {
    let breaker = d.breaker.map_or_else(|| "none".to_string(), |b| b.state.to_string());
    format!(
        "pairs={} faulted={} integrity={} deadline_events={} bad_pair_ewma={:.3} quarantined={} breaker={breaker}",
        d.pairs,
        d.faulted_pairs,
        d.integrity_violations,
        d.deadline_events,
        d.bad_pair_ewma,
        d.quarantined
    )
}

fn tenant_line(c: &TenantCounters) -> String {
    format!(
        "admitted={} completed={} failed={} resumed={} rejected={} \
         (rate={} queue={} brownout={} draining={} overloaded={}) \
         deadline_exceeded={} degraded={}",
        c.admitted,
        c.completed,
        c.failed,
        c.resumed,
        c.rejected(),
        c.rejected_rate,
        c.rejected_queue,
        c.rejected_brownout,
        c.rejected_draining,
        c.rejected_overloaded,
        c.deadline_exceeded,
        c.degraded_software
    )
}

fn fail_kind(e: &AlignError) -> FailKind {
    match e {
        AlignError::DeadlineExceeded { .. } => FailKind::Deadline,
        AlignError::Cancelled => FailKind::Cancelled,
        AlignError::IntegrityViolation { .. } => FailKind::Integrity,
        _ => FailKind::Error,
    }
}

/// The front-door server factory.
pub struct Server;

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts the accept loop
    /// and an executor runtime of `cfg.exec.jobs` worker threads over a
    /// pool built from `device`.
    ///
    /// # Errors
    ///
    /// Invalid executor configuration ([`ExecutorConfig::validate`]),
    /// bind failures, and pool construction failures, all as typed
    /// [`AlignError`]s.
    pub fn bind(
        device: SmxDevice,
        cfg: ServerConfig,
        addr: &str,
    ) -> Result<ServerHandle, AlignError> {
        cfg.exec.validate()?;
        let listener = TcpListener::bind(addr)
            .map_err(|e| AlignError::Internal(format!("bind {addr}: {e}")))?;
        let local =
            listener.local_addr().map_err(|e| AlignError::Internal(format!("local addr: {e}")))?;
        if let Some(dir) = &cfg.checkpoint_dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| AlignError::Internal(format!("checkpoint dir: {e}")))?;
        }
        let policy = Policy {
            shards: cfg.shards,
            steal: cfg.steal,
            brownout: Some(cfg.brownout),
            retry: cfg.retry,
            supervisor: Some(cfg.supervisor),
        };
        let rt = Runtime::start(&device, cfg.exec.clone(), policy, CancelToken::new())?;
        let shared = Arc::new(Shared {
            alphabet: device.config().alphabet(),
            rt,
            tenants: Mutex::new(TenantTable::new(cfg.policy)),
            sessions: Mutex::new(SessionStore::new(
                cfg.checkpoint_dir.clone(),
                cfg.resume_sessions,
            )),
            pair_seq: AtomicUsize::new(0),
            conns: AtomicUsize::new(0),
            conn_threads: Mutex::new(Vec::new()),
            cfg,
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(listener, &shared))
        };
        Ok(ServerHandle { shared, addr: local, accept: Some(accept) })
    }
}

/// A running server: its address, live stats, and the two ways down —
/// graceful [`ServerHandle::drain`] or simulated [`ServerHandle::crash`].
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the OS-assigned port when bound to `:0`).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The `/stats` text, identical to what a `STATS` frame returns.
    #[must_use]
    pub fn stats_text(&self) -> String {
        self.shared.stats_text()
    }

    /// Live per-shard counters, in shard-id order (the storm
    /// harnesses' view of failovers while the server runs).
    #[must_use]
    pub fn shard_snapshots(&self) -> Vec<ShardSnapshot> {
        self.shared.rt.shards.iter().map(Shard::snapshot).collect()
    }

    /// Graceful drain: stop accepting, flush every in-flight and queued
    /// pair through its durable manifest, `DONE` every session, and
    /// report per-tenant counts.
    pub fn drain(mut self) -> DrainReport {
        self.wind_down(STATE_DRAINING);
        let shared = &self.shared;
        let per_tenant = relock(&shared.tenants)
            .sorted()
            .into_iter()
            .map(|(name, t)| (name.to_string(), t.counters))
            .collect();
        let mut totals = *relock(&shared.rt.counters);
        totals.max_queue_depth =
            shared.rt.shards.iter().map(|s| s.queue.max_depth()).max().unwrap_or(0);
        let per_shard = self.shard_snapshots();
        DrainReport { per_tenant, totals, per_shard }
    }

    /// Simulated `kill -9` for in-process crash testing: no flush, no
    /// `DONE`, no further acks — connections just die. Acked pairs are
    /// already durable (the ack ordering guarantees it), so a restart
    /// over the same checkpoint directory with resume enabled replays
    /// exactly the acked set.
    pub fn crash(mut self) {
        self.shared.rt.token.cancel();
        self.wind_down(STATE_CRASHED);
    }

    fn wind_down(&mut self, state: u8) {
        self.shared.rt.stop(state);
        if let Some(accept) = self.accept.take() {
            // The accept thread blocks in `accept()`; one loopback
            // connect wakes it to see the state flip and exit. If the
            // wake cannot connect and the thread is still blocked,
            // detach it rather than hang the wind-down: it exits on the
            // next connection it accepts.
            let woke =
                TcpStream::connect_timeout(&wake_addr(self.addr), Duration::from_secs(1)).is_ok();
            if woke || accept.is_finished() {
                let _ = accept.join();
            }
        }
        // Connection threads exit on their own once they observe the
        // state flip (bounded by their read/recv timeouts).
        loop {
            let handles: Vec<JoinHandle<()>> =
                std::mem::take(&mut *relock(&self.shared.conn_threads));
            if handles.is_empty() {
                break;
            }
            for h in handles {
                let _ = h.join();
            }
        }
    }
}

/// The address that reaches a listener bound to `bound` from this host:
/// a wildcard bind is woken through the loopback of its family.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(v4) if v4.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(v6) if v6.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// Blocks in `accept()` until a client arrives or wind-down wakes it
/// with a loopback connect. Every accepted stream is checked against
/// the runtime state first, so a stopped server takes no connection.
fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        if shared.rt.state() != STATE_RUNNING {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                if shared.conns.load(Ordering::SeqCst) >= shared.cfg.max_conns {
                    let mut w = BufWriter::new(&stream);
                    let _ = write_frame(
                        &mut w,
                        &Response::Err("connection capacity reached; retry later".into()).encode(),
                    );
                    continue;
                }
                shared.conns.fetch_add(1, Ordering::SeqCst);
                let shared2 = Arc::clone(shared);
                let handle = std::thread::spawn(move || {
                    conn_loop(stream, &shared2);
                    shared2.conns.fetch_sub(1, Ordering::SeqCst);
                });
                // Reap finished connections so the registry holds only
                // live ones; wind-down joins whatever is left.
                let mut threads = relock(&shared.conn_threads);
                threads.retain(|h| !h.is_finished());
                threads.push(handle);
            }
            // A real accept error (EMFILE, ENFILE, ...) would fail again
            // at once; the backoff keeps it from spinning hot.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Per-connection reader: the protocol state machine and the admission
/// ladder. All socket *writes* go through the writer thread so frames
/// never interleave.
fn conn_loop(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);

    // Phase 1: HELLO. Tolerate read timeouts while waiting, but give up
    // if the server stops running.
    let hello = loop {
        match read_frame(&mut reader) {
            Ok(Some(payload)) => break payload,
            Ok(None) => return,
            Err(ProtoError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shared.rt.state() != STATE_RUNNING {
                    return;
                }
            }
            Err(_) => return,
        }
    };
    let (session_id, tenant, priority, deadline_ms) = match Request::parse(&hello) {
        Ok(Request::Hello { session, tenant, priority, deadline_ms }) => {
            (session, tenant, priority, deadline_ms)
        }
        Ok(_) | Err(_) => {
            let mut w = BufWriter::new(write_half);
            let _ = write_frame(
                &mut w,
                &Response::Err("expected HELLO as the first frame".into()).encode(),
            );
            return;
        }
    };
    let opened = {
        let mut warn = |warning: session::ResumeWarning| {
            eprintln!("# resume: session {session_id}: {warning}");
        };
        // The open result is hoisted out of the match so the store
        // guard dies at this statement — an Err arm that wrote to the
        // socket while still holding the lock would stall every other
        // connection's open/release behind one slow client.
        shared
            .sessions()
            .map_err(|e| e.to_string())
            .and_then(|mut s| s.open(&session_id, &mut warn).map_err(|e| e.to_string()))
    };
    let session = match opened {
        Ok(s) => s,
        Err(detail) => {
            let mut w = BufWriter::new(write_half);
            let _ = write_frame(&mut w, &Response::Err(detail).encode());
            return;
        }
    };
    let resume_ids: std::collections::HashSet<usize> = session.completed.keys().copied().collect();
    let resumed_count = resume_ids.len() as u64;
    relock(&shared.tenants).entry(&tenant, priority);

    let outstanding = Arc::new(AtomicUsize::new(0));
    let (tx, rx) = mpsc::channel::<WriterMsg>();
    let writer = {
        let shared = Arc::clone(shared);
        let tenant = tenant.clone();
        let outstanding = Arc::clone(&outstanding);
        let _ = write_half.set_write_timeout(Some(Duration::from_secs(5)));
        std::thread::spawn(move || {
            writer_loop(write_half, rx, session, &shared, &tenant, &outstanding)
        })
    };
    let _ = tx.send(WriterMsg::Frame(Response::Ok {
        session: session_id.clone(),
        resumed: resumed_count,
    }));

    // The deadline each PAIR gets: the HELLO's, or the server default.
    let deadline = if deadline_ms == 0 {
        shared.cfg.exec.deadline
    } else {
        Some(Duration::from_millis(deadline_ms))
    };

    // Phase 2: the request loop.
    loop {
        let payload = match read_frame(&mut reader) {
            Ok(Some(p)) => p,
            Ok(None) => break, // client hung up without BYE
            Err(ProtoError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                match shared.rt.state() {
                    STATE_RUNNING => continue,
                    STATE_DRAINING => break, // flush + DONE below
                    _ => {
                        // Crashed: vanish without a goodbye.
                        drop(tx);
                        let _ = writer.join();
                        if let Ok(mut s) = shared.sessions() {
                            s.release(&session_id);
                        }
                        return;
                    }
                }
            }
            Err(e) => {
                let _ = tx.send(WriterMsg::Frame(Response::Err(e.to_string())));
                break;
            }
        };
        match Request::parse(&payload) {
            Ok(Request::Pair { id, query, reference }) => {
                admit(
                    shared,
                    &tx,
                    &tenant,
                    priority,
                    deadline,
                    id,
                    &query,
                    &reference,
                    &resume_ids,
                    &outstanding,
                );
            }
            Ok(Request::Stats) => {
                let _ = tx.send(WriterMsg::Frame(Response::Stats(shared.stats_text())));
            }
            Ok(Request::Bye) => break,
            Ok(Request::Hello { .. }) => {
                let _ = tx.send(WriterMsg::Frame(Response::Err(
                    "HELLO is only valid as the first frame".into(),
                )));
                break;
            }
            Err(e) => {
                let _ = tx.send(WriterMsg::Frame(Response::Err(e.to_string())));
                break;
            }
        }
    }
    let _ = tx.send(WriterMsg::Bye);
    drop(tx);
    let _ = writer.join();
    // A poisoned store here has nothing left worth tearing down — the
    // connection is already ending; just skip the release.
    if let Ok(mut s) = shared.sessions() {
        s.release(&session_id);
    }
}

/// The admission ladder, in order: drain, replay, rate limit, slow-reader
/// cap, brownout refusal, queue capacity. Every exit is a typed frame.
#[allow(clippy::too_many_arguments)]
fn admit(
    shared: &Shared,
    tx: &mpsc::Sender<WriterMsg>,
    tenant: &str,
    priority: Priority,
    deadline: Option<Duration>,
    id: usize,
    query: &str,
    reference: &str,
    resume_ids: &std::collections::HashSet<usize>,
    outstanding: &Arc<AtomicUsize>,
) {
    let reject = |reason: RejectReason, retry_after_ms: u64| {
        relock(&shared.rt.counters).rejected += 1;
        shared.tenant_bump(tenant, |c| match reason {
            RejectReason::RateLimit => c.rejected_rate += 1,
            RejectReason::QueueFull => c.rejected_queue += 1,
            RejectReason::Brownout => c.rejected_brownout += 1,
            RejectReason::Draining => c.rejected_draining += 1,
            RejectReason::Overloaded => c.rejected_overloaded += 1,
        });
        let _ = tx.send(WriterMsg::Frame(Response::Reject { id, reason, retry_after_ms }));
    };
    if shared.rt.state() != STATE_RUNNING {
        reject(RejectReason::Draining, 1000);
        return;
    }
    if resume_ids.contains(&id) {
        // Already durable from a previous run of this session: replay
        // without consuming any admission budget.
        let _ = tx.send(WriterMsg::Replay(id));
        return;
    }
    let wait = {
        let mut tenants = relock(&shared.tenants);
        tenants.entry(tenant, priority).bucket.try_take(Instant::now())
    };
    if let Err(wait) = wait {
        reject(RejectReason::RateLimit, wait.as_millis().max(1) as u64);
        return;
    }
    if outstanding.load(Ordering::SeqCst) >= shared.cfg.max_outstanding {
        reject(RejectReason::Overloaded, 50);
        return;
    }
    let level = shared.rt.brownout();
    if level >= BrownoutLevel::RefusingLow && priority == Priority::Low {
        reject(RejectReason::Brownout, 200);
        return;
    }
    let (q, r) = match (
        Sequence::from_text(shared.alphabet, query),
        Sequence::from_text(shared.alphabet, reference),
    ) {
        (Ok(q), Ok(r)) => (q, r),
        (Err(e), _) | (_, Err(e)) => {
            // A malformed sequence is the client's own failure, typed,
            // without burning a queue slot.
            let _ = tx.send(WriterMsg::Frame(Response::Fail {
                id,
                kind: FailKind::Error,
                detail: e.to_string(),
            }));
            return;
        }
    };
    let job = Job {
        id,
        seq: shared.pair_seq.fetch_add(1, Ordering::SeqCst),
        priority,
        query: q,
        reference: r,
        deadline: deadline.map(|d| (Instant::now() + d, d.as_millis() as u64)),
        reply: tx.clone(),
    };
    // Count the pair as outstanding *before* it becomes visible to the
    // workers: a fast completion must never decrement past zero.
    outstanding.fetch_add(1, Ordering::SeqCst);
    let home = home_shard(tenant, id, shared.rt.shards.len());
    // Failpoint `shard.dispatch` (lane = home shard): an injected error
    // fails the home-shard route, forcing the spill path — the same
    // thing a just-degraded home looks like to the dispatcher.
    let home_down = smx_failpoint::hit_lane("shard.dispatch", home as u32).is_some();
    if shared.rt.dispatch(home, home_down, AdmissionPolicy::Shed, job).is_ok() {
        relock(&shared.rt.counters).admitted += 1;
        shared.tenant_bump(tenant, |c| c.admitted += 1);
        return;
    }
    // Every live shard was full (or none is live): typed backpressure.
    outstanding.fetch_sub(1, Ordering::SeqCst);
    reject(RejectReason::QueueFull, 25);
}

/// Per-connection writer: the only thread that touches this socket's
/// write half, and the owner of the session manifest. The crash-safety
/// ordering lives here: `record` (write + flush + fsync), *then* the
/// `RESULT` frame.
fn writer_loop(
    stream: TcpStream,
    rx: mpsc::Receiver<WriterMsg>,
    mut session: Session,
    shared: &Shared,
    tenant: &str,
    outstanding: &AtomicUsize,
) {
    let mut out = BufWriter::new(stream);
    // Abandoning the connection mid-stream (dead socket, injected torn
    // write, ack failpoint) must close the *socket*, not just this
    // clone: the reader thread holds another clone, and the peer should
    // observe a hard drop — the same thing a process death looks like.
    let kill_socket = |out: &BufWriter<TcpStream>| {
        let _ = out.get_ref().shutdown(std::net::Shutdown::Both);
    };
    let mut local = (0u64, 0u64, 0u64, 0u64); // completed, failed, rejected, resumed
    let mut byeing = false;
    loop {
        if shared.rt.state() == STATE_CRASHED {
            return; // no further acks, exactly like a dead process
        }
        if byeing && outstanding.load(Ordering::SeqCst) == 0 {
            let (completed, failed, rejected, resumed) = local;
            let _ = write_frame(
                &mut out,
                &Response::Done { completed, failed, rejected, resumed }.encode(),
            );
            let _ = out.flush();
            return;
        }
        let msg = match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(m) => m,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => {
                // Every sender (reader + all in-flight jobs) is gone.
                byeing = true;
                continue;
            }
        };
        match msg {
            WriterMsg::Frame(resp) => {
                if matches!(resp, Response::Reject { .. }) {
                    local.2 += 1;
                }
                if write_frame(&mut out, &resp.encode()).is_err() {
                    // Dead socket (peer gone, or an injected torn
                    // write): stop acking. Anything recorded but not
                    // framed is replayed on resume.
                    kill_socket(&out);
                    return;
                }
            }
            WriterMsg::Replay(id) => {
                if let Some(a) = session.completed.get(&id) {
                    let frame = Response::Result {
                        id,
                        score: a.score,
                        cigar: a.cigar.to_string(),
                        resumed: true,
                    };
                    local.3 += 1;
                    relock(&shared.rt.counters).resumed += 1;
                    shared.tenant_bump(tenant, |c| c.resumed += 1);
                    if write_frame(&mut out, &frame.encode()).is_err() {
                        kill_socket(&out);
                        return;
                    }
                }
            }
            WriterMsg::Done(c) => {
                outstanding.fetch_sub(1, Ordering::SeqCst);
                match c.result {
                    Ok(a) => match session.record(c.id, &a) {
                        Ok(()) => {
                            local.0 += 1;
                            shared.tenant_bump(tenant, |t| t.completed += 1);
                            if c.degraded {
                                shared.tenant_bump(tenant, |t| t.degraded_software += 1);
                            }
                            // Failpoint `session.ack`: die between the
                            // fsynced record and the RESULT frame — the
                            // recorded-but-unacked window. Dropping the
                            // connection here must never lose the pair:
                            // resume replays it (at-least-once), which
                            // is exactly what chaos_storm asserts.
                            if smx_failpoint::hit("session.ack").is_some() {
                                kill_socket(&out);
                                return;
                            }
                            if write_frame(
                                &mut out,
                                &Response::Result {
                                    id: c.id,
                                    score: a.score,
                                    cigar: a.cigar.to_string(),
                                    resumed: false,
                                }
                                .encode(),
                            )
                            .is_err()
                            {
                                // Recorded but the ack never reached the
                                // wire: same recoverable window as above.
                                kill_socket(&out);
                                return;
                            }
                        }
                        Err(e) => {
                            // The manifest write failed: the pair is NOT
                            // acked (the client must treat it as lost).
                            local.1 += 1;
                            shared.tenant_bump(tenant, |t| t.failed += 1);
                            let _ = write_frame(
                                &mut out,
                                &Response::Fail {
                                    id: c.id,
                                    kind: FailKind::Error,
                                    detail: format!("checkpoint write failed: {e}"),
                                }
                                .encode(),
                            );
                        }
                    },
                    Err(e) => {
                        local.1 += 1;
                        shared.tenant_bump(tenant, |t| {
                            t.failed += 1;
                            if matches!(e, AlignError::DeadlineExceeded { .. }) {
                                t.deadline_exceeded += 1;
                            }
                        });
                        let _ = write_frame(
                            &mut out,
                            &Response::Fail {
                                id: c.id,
                                kind: fail_kind(&e),
                                detail: e.to_string(),
                            }
                            .encode(),
                        );
                    }
                }
            }
            WriterMsg::Bye => byeing = true,
        }
    }
}

/// A minimal blocking client for the framed protocol — shared by the
/// server's own tests, the CLI integration tests, and the load
/// generator, so every consumer speaks through the same encoder.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// Connection failures as `std::io::Error`.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Sends one request frame.
    ///
    /// # Errors
    ///
    /// Framing/socket errors as [`ProtoError`].
    pub fn send(&mut self, req: &Request) -> Result<(), ProtoError> {
        write_frame(&mut self.stream, &req.encode())
    }

    /// Receives one response frame (`None` on clean EOF).
    ///
    /// # Errors
    ///
    /// Framing/socket errors as [`ProtoError`].
    pub fn recv(&mut self) -> Result<Option<Response>, ProtoError> {
        match read_frame(&mut self.stream)? {
            Some(payload) => Response::parse(&payload).map(Some),
            None => Ok(None),
        }
    }

    /// Sets the socket read timeout (for storm clients that must not
    /// block forever on a crashed server).
    ///
    /// # Errors
    ///
    /// Socket option failures as `std::io::Error`.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::runtime::{
        redistribute_queue, restart_shard, steal_job, SHARD_DEGRADED, SHARD_LIVE, SHARD_QUARANTINED,
    };
    use super::*;
    use smx_align_core::AlignmentConfig;
    use std::collections::HashMap;

    fn server(cfg: ServerConfig) -> ServerHandle {
        let dev = SmxDevice::new(AlignmentConfig::DnaEdit, 4).unwrap();
        Server::bind(dev, cfg, "127.0.0.1:0").unwrap()
    }

    fn hello(c: &mut Client, session: &str, tenant: &str, pri: Priority, dl: u64) -> u64 {
        c.send(&Request::Hello {
            session: session.into(),
            tenant: tenant.into(),
            priority: pri,
            deadline_ms: dl,
        })
        .unwrap();
        match c.recv().unwrap().unwrap() {
            Response::Ok { resumed, .. } => resumed,
            other => panic!("expected OK, got {other:?}"),
        }
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("smx-server-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_is_byte_identical_to_the_software_baseline() {
        let h = server(ServerConfig {
            exec: ExecutorConfig { jobs: 2, ..ExecutorConfig::default() },
            ..ServerConfig::default()
        });
        let mut c = Client::connect(h.addr()).unwrap();
        assert_eq!(hello(&mut c, "-", "acme", Priority::Normal, 0), 0);
        let pairs = [("GATTACAGATTACA", "GATTACACATTACA"), ("ACGTACGT", "ACGTACGA")];
        for (i, (q, r)) in pairs.iter().enumerate() {
            c.send(&Request::Pair { id: i, query: (*q).into(), reference: (*r).into() }).unwrap();
        }
        let mut got = HashMap::new();
        for _ in 0..pairs.len() {
            match c.recv().unwrap().unwrap() {
                Response::Result { id, score, cigar, resumed } => {
                    assert!(!resumed);
                    got.insert(id, (score, cigar));
                }
                other => panic!("expected RESULT, got {other:?}"),
            }
        }
        let mut dev = SmxDevice::new(AlignmentConfig::DnaEdit, 4).unwrap();
        for (i, (q, r)) in pairs.iter().enumerate() {
            let golden = dev
                .align(
                    &Sequence::from_text(Alphabet::Dna2, q).unwrap(),
                    &Sequence::from_text(Alphabet::Dna2, r).unwrap(),
                )
                .unwrap();
            assert_eq!(got[&i], (golden.score, golden.cigar.to_string()), "pair {i}");
        }
        c.send(&Request::Bye).unwrap();
        match c.recv().unwrap().unwrap() {
            Response::Done { completed, failed, rejected, resumed } => {
                assert_eq!((completed, failed, rejected, resumed), (2, 0, 0, 0));
            }
            other => panic!("expected DONE, got {other:?}"),
        }
        let report = h.drain();
        assert_eq!(report.totals.completed, 2);
        assert_eq!(report.per_tenant.len(), 1);
        assert_eq!(report.per_tenant[0].0, "acme");
        assert_eq!(report.per_tenant[0].1.completed, 2);
    }

    #[test]
    fn exhausted_token_bucket_rejects_with_retry_hint() {
        let h = server(ServerConfig {
            policy: TenantPolicy { rate: 0.001, burst: 1.0 },
            ..ServerConfig::default()
        });
        let mut c = Client::connect(h.addr()).unwrap();
        hello(&mut c, "-", "hot", Priority::Normal, 0);
        c.send(&Request::Pair { id: 0, query: "ACGT".into(), reference: "ACGT".into() }).unwrap();
        c.send(&Request::Pair { id: 1, query: "ACGT".into(), reference: "ACGT".into() }).unwrap();
        let mut rejected = None;
        for _ in 0..2 {
            match c.recv().unwrap().unwrap() {
                Response::Result { id, .. } => assert_eq!(id, 0),
                Response::Reject { id, reason, retry_after_ms } => {
                    assert_eq!(id, 1);
                    assert_eq!(reason, RejectReason::RateLimit);
                    assert!(retry_after_ms > 0, "hint must be actionable");
                    rejected = Some(retry_after_ms);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(rejected.is_some());
        let report = h.drain();
        assert_eq!(report.per_tenant[0].1.rejected_rate, 1);
    }

    #[test]
    fn brownout_refuses_low_priority_but_serves_high() {
        // Thresholds at zero put the server permanently at the deepest
        // brownout rung: low is refused, high still runs (degraded
        // extras, but served).
        let h = server(ServerConfig {
            brownout: BrownoutConfig {
                shed_extras_at: 0.0,
                degrade_low_at: 0.0,
                refuse_low_at: 0.0,
            },
            ..ServerConfig::default()
        });
        let mut low = Client::connect(h.addr()).unwrap();
        hello(&mut low, "-", "batch", Priority::Low, 0);
        low.send(&Request::Pair { id: 0, query: "ACGT".into(), reference: "ACGT".into() }).unwrap();
        match low.recv().unwrap().unwrap() {
            Response::Reject { reason, .. } => assert_eq!(reason, RejectReason::Brownout),
            other => panic!("expected brownout reject, got {other:?}"),
        }
        let mut high = Client::connect(h.addr()).unwrap();
        hello(&mut high, "-", "urgent", Priority::High, 0);
        high.send(&Request::Pair { id: 0, query: "ACGT".into(), reference: "ACGT".into() })
            .unwrap();
        assert!(matches!(high.recv().unwrap().unwrap(), Response::Result { .. }));
        let stats = h.stats_text();
        assert!(stats.contains("brownout: refusing-low"), "{stats}");
        let report = h.drain();
        assert_eq!(report.per_tenant[0].1.rejected_brownout, 1, "{report:?}");
    }

    #[test]
    fn per_pair_deadline_fails_typed_not_hanging() {
        let h = server(ServerConfig::default());
        let mut c = Client::connect(h.addr()).unwrap();
        hello(&mut c, "-", "t", Priority::Normal, 1);
        // A pair large enough that 1 ms cannot possibly cover it.
        let q: String = "ACGTTGCA".repeat(800);
        let r: String = "ACGATGCA".repeat(800);
        c.send(&Request::Pair { id: 0, query: q, reference: r }).unwrap();
        match c.recv().unwrap().unwrap() {
            Response::Fail { id, kind, .. } => {
                assert_eq!(id, 0);
                assert_eq!(kind, FailKind::Deadline);
            }
            other => panic!("expected deadline FAIL, got {other:?}"),
        }
        let report = h.drain();
        assert_eq!(report.totals.deadline_exceeded, 1);
        assert_eq!(report.per_tenant[0].1.deadline_exceeded, 1);
    }

    #[test]
    fn stats_frame_reports_the_ladder() {
        let h = server(ServerConfig::default());
        let mut c = Client::connect(h.addr()).unwrap();
        hello(&mut c, "-", "obs", Priority::Normal, 0);
        c.send(&Request::Stats).unwrap();
        match c.recv().unwrap().unwrap() {
            Response::Stats(text) => {
                for key in
                    ["state: running", "queue_depth:", "brownout:", "device 0:", "tenant obs:"]
                {
                    assert!(text.contains(key), "missing {key:?} in:\n{text}");
                }
            }
            other => panic!("expected STATS, got {other:?}"),
        }
        h.drain();
    }

    #[test]
    fn crash_then_resume_replays_exactly_the_acked_pairs() {
        let dir = temp_dir("crash-resume");
        let mk = |resume: bool| {
            server(ServerConfig {
                checkpoint_dir: Some(dir.clone()),
                resume_sessions: resume,
                ..ServerConfig::default()
            })
        };
        let h = mk(false);
        let addr = h.addr();
        let mut c = Client::connect(addr).unwrap();
        assert_eq!(hello(&mut c, "s1", "acme", Priority::Normal, 0), 0);
        let pairs: Vec<(String, String)> = (0..6)
            .map(|i| {
                (
                    format!("GATTACA{}", "ACGT".repeat(i + 1)),
                    format!("GATTACA{}", "AGGT".repeat(i + 1)),
                )
            })
            .collect();
        for (i, (q, r)) in pairs.iter().enumerate() {
            c.send(&Request::Pair { id: i, query: q.clone(), reference: r.clone() }).unwrap();
        }
        // Collect a few acks, then crash mid-stream.
        let mut acked = HashMap::new();
        for _ in 0..3 {
            if let Response::Result { id, score, cigar, .. } = c.recv().unwrap().unwrap() {
                acked.insert(id, (score, cigar));
            }
        }
        h.crash();
        // Restart over the same manifests, resume, resubmit everything.
        let h2 = mk(true);
        let mut c2 = Client::connect(h2.addr()).unwrap();
        let resumed = hello(&mut c2, "s1", "acme", Priority::Normal, 0);
        assert!(
            resumed >= acked.len() as u64,
            "every ack must be durable: {resumed} acked={}",
            acked.len()
        );
        for (i, (q, r)) in pairs.iter().enumerate() {
            c2.send(&Request::Pair { id: i, query: q.clone(), reference: r.clone() }).unwrap();
        }
        let mut results = HashMap::new();
        let mut replayed = 0u64;
        for _ in 0..pairs.len() {
            match c2.recv().unwrap().unwrap() {
                Response::Result { id, score, cigar, resumed } => {
                    if resumed {
                        replayed += 1;
                    }
                    results.insert(id, (score, cigar));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(replayed, resumed, "manifest pairs replay without recompute");
        // Replayed results are byte-identical to the pre-crash acks.
        for (id, pre) in &acked {
            assert_eq!(&results[id], pre, "pair {id} must survive the crash");
        }
        h2.drain();
    }

    #[test]
    fn drain_sends_done_to_connected_sessions() {
        let h = server(ServerConfig::default());
        let mut c = Client::connect(h.addr()).unwrap();
        hello(&mut c, "-", "t", Priority::Normal, 0);
        let drainer = std::thread::spawn(move || h.drain());
        // The reader notices the drain on its next timeout and flushes.
        match c.recv().unwrap() {
            Some(Response::Done { .. }) => {}
            other => panic!("expected DONE on drain, got {other:?}"),
        }
        let report = drainer.join().unwrap();
        assert_eq!(report.totals.failed, 0);
    }

    #[test]
    fn pairs_submitted_while_draining_are_rejected_typed() {
        // Submitting against a draining server cannot be raced reliably
        // from outside, so drive the admission ladder directly.
        let h = server(ServerConfig::default());
        let shared = Arc::clone(&h.shared);
        let (tx, rx) = mpsc::channel();
        shared.rt.state.store(STATE_DRAINING, Ordering::SeqCst);
        shared.tenants.lock().unwrap().entry("t", Priority::Normal);
        admit(
            &shared,
            &tx,
            "t",
            Priority::Normal,
            None,
            7,
            "ACGT",
            "ACGT",
            &std::collections::HashSet::new(),
            &Arc::new(AtomicUsize::new(0)),
        );
        match rx.recv().unwrap() {
            WriterMsg::Frame(Response::Reject { id, reason, .. }) => {
                assert_eq!((id, reason), (7, RejectReason::Draining));
            }
            _ => panic!("expected a draining reject"),
        }
        shared.rt.state.store(STATE_RUNNING, Ordering::SeqCst);
        h.drain();
    }

    #[test]
    fn home_shard_is_deterministic_and_spreads_the_fleet() {
        for n in 1..6 {
            for id in 0..64 {
                let home = home_shard("acme", id, n);
                assert!(home < n);
                assert_eq!(home, home_shard("acme", id, n), "pure function of (tenant, id)");
            }
        }
        // 64 ids across two tenants must reach every shard of a 4-shard
        // fleet — a constant hash would pile the whole fleet on one.
        let mut hit = [false; 4];
        for id in 0..64 {
            hit[home_shard("acme", id, 4)] = true;
            hit[home_shard("globex", id, 4)] = true;
        }
        assert!(hit.iter().all(|&h| h), "ids must spread across shards: {hit:?}");
    }

    #[test]
    fn sharded_roundtrip_is_byte_identical_and_books_per_shard() {
        let h = server(ServerConfig {
            exec: ExecutorConfig { jobs: 3, ..ExecutorConfig::default() },
            shards: 3,
            ..ServerConfig::default()
        });
        let mut c = Client::connect(h.addr()).unwrap();
        hello(&mut c, "-", "acme", Priority::Normal, 0);
        let pairs: Vec<(String, String)> = (0..12)
            .map(|i| {
                (
                    format!("GATTACA{}", "ACGT".repeat(i % 4 + 1)),
                    format!("GATTACA{}", "AGGT".repeat(i % 4 + 1)),
                )
            })
            .collect();
        for (i, (q, r)) in pairs.iter().enumerate() {
            c.send(&Request::Pair { id: i, query: q.clone(), reference: r.clone() }).unwrap();
        }
        let mut got = HashMap::new();
        for _ in 0..pairs.len() {
            match c.recv().unwrap().unwrap() {
                Response::Result { id, score, cigar, .. } => {
                    got.insert(id, (score, cigar));
                }
                other => panic!("expected RESULT, got {other:?}"),
            }
        }
        // Byte-identity across shards: every pair matches the software
        // golden model no matter which shard served it.
        let mut dev = SmxDevice::new(AlignmentConfig::DnaEdit, 4).unwrap();
        for (i, (q, r)) in pairs.iter().enumerate() {
            let golden = dev
                .align(
                    &Sequence::from_text(Alphabet::Dna2, q).unwrap(),
                    &Sequence::from_text(Alphabet::Dna2, r).unwrap(),
                )
                .unwrap();
            assert_eq!(got[&i], (golden.score, golden.cigar.to_string()), "pair {i}");
        }
        let snaps = h.shard_snapshots();
        assert_eq!(snaps.len(), 3);
        let dispatched: u64 = snaps.iter().map(|s| s.dispatched).sum();
        assert_eq!(dispatched, pairs.len() as u64, "every pair books on exactly one shard");
        assert!(snaps.iter().all(|s| s.state == "live"), "{snaps:?}");
        let report = h.drain();
        assert_eq!(report.totals.completed, pairs.len() as u64);
        assert_eq!(report.per_shard.len(), 3);
        let completed: u64 = report.per_shard.iter().map(|s| s.completed).sum();
        assert_eq!(completed, pairs.len() as u64);
    }

    #[test]
    fn degraded_shard_gets_no_dispatch_but_siblings_steal_its_queue() {
        let h = server(ServerConfig {
            exec: ExecutorConfig { jobs: 2, ..ExecutorConfig::default() },
            shards: 2,
            // Park the supervisor ladder: this test drives the degraded
            // rung by hand and must not race a real restart.
            supervisor: SupervisorConfig {
                stale_intervals: u32::MAX,
                ..SupervisorConfig::default()
            },
            ..ServerConfig::default()
        });
        let shared = Arc::clone(&h.shared);
        shared.rt.shards[0].state.store(SHARD_DEGRADED, Ordering::SeqCst);
        // A pair whose home is the degraded shard spills to its sibling.
        let id = (0..64).find(|&id| home_shard("t", id, 2) == 0).unwrap();
        shared.tenants.lock().unwrap().entry("t", Priority::Normal);
        let (tx, rx) = mpsc::channel();
        admit(
            &shared,
            &tx,
            "t",
            Priority::Normal,
            None,
            id,
            "GATTACAGATTACA",
            "GATTACACATTACA",
            &std::collections::HashSet::new(),
            &Arc::new(AtomicUsize::new(0)),
        );
        match rx.recv_timeout(Duration::from_secs(10)).unwrap() {
            WriterMsg::Done(completion) => {
                assert_eq!(completion.id, id);
                assert!(completion.result.is_ok(), "{:?}", completion.result);
            }
            _ => panic!("expected the spilled pair to complete"),
        }
        assert_eq!(shared.rt.shards[0].dispatched.load(Ordering::SeqCst), 0, "no new dispatch");
        assert_eq!(shared.rt.shards[1].dispatched.load(Ordering::SeqCst), 1, "sibling serves it");
        // Steal-only rung: a pair already queued on the degraded shard
        // is still drained by the sibling's workers. Retire shard 0's
        // worker generation first (the realistic shape — a degraded
        // shard is degraded *because* its workers stopped moving), so
        // only a steal can serve the queued pair.
        shared.rt.shards[0].generation.fetch_add(1, Ordering::SeqCst);
        for handle in std::mem::take(&mut *relock(&shared.rt.shards[0].workers)) {
            handle.join().unwrap();
        }
        let (tx, rx) = mpsc::channel();
        let job = Job {
            id: 99,
            seq: 99,
            priority: Priority::Normal,
            query: Sequence::from_text(Alphabet::Dna2, "ACGTACGT").unwrap(),
            reference: Sequence::from_text(Alphabet::Dna2, "ACGTACGA").unwrap(),
            deadline: None,
            reply: tx,
        };
        shared.rt.shards[0].queue.try_push(job).unwrap_or_else(|_| panic!("queue has room"));
        match rx.recv_timeout(Duration::from_secs(10)).unwrap() {
            WriterMsg::Done(completion) => assert!(completion.result.is_ok()),
            _ => panic!("expected the stolen pair to complete"),
        }
        assert!(shared.rt.shards[0].stolen_from.load(Ordering::SeqCst) >= 1);
        assert!(shared.rt.shards[1].stolen_by.load(Ordering::SeqCst) >= 1);
        shared.rt.shards[0].state.store(SHARD_LIVE, Ordering::SeqCst);
        h.drain();
    }

    /// Stops every shard worker so a test can manipulate the queues
    /// without the fleet racing it, leaving the handle still drainable.
    /// Idle workers notice the state flip within one bounded queue wait.
    fn park_workers(shared: &Arc<Shared>) {
        shared.rt.state.store(STATE_CRASHED, Ordering::SeqCst);
        for shard in &shared.rt.shards {
            for handle in std::mem::take(&mut *relock(&shard.workers)) {
                handle.join().unwrap();
            }
        }
    }

    fn parked_job(id: usize, tx: &mpsc::Sender<WriterMsg>) -> Job<WriterMsg> {
        Job {
            id,
            seq: id,
            priority: Priority::Normal,
            query: Sequence::from_text(Alphabet::Dna2, "ACGT").unwrap(),
            reference: Sequence::from_text(Alphabet::Dna2, "ACGA").unwrap(),
            deadline: None,
            reply: tx.clone(),
        }
    }

    #[test]
    fn steal_races_restart_requeue_without_loss_or_duplication() {
        use crate::testkit::Gate;
        let h = server(ServerConfig {
            exec: ExecutorConfig { jobs: 2, ..ExecutorConfig::default() },
            shards: 2,
            ..ServerConfig::default()
        });
        let shared = Arc::clone(&h.shared);
        park_workers(&shared);
        let (tx, _rx) = mpsc::channel();
        const K: usize = 24;
        for id in 0..K {
            shared.rt.shards[0]
                .queue
                .try_push(parked_job(id, &tx))
                .unwrap_or_else(|_| panic!("job {id} must fit the shard queue"));
        }
        // Race the restart's requeue sweep against a sibling stealing
        // from the same queue: every pair must end up in exactly one
        // place — stolen, moved to the sibling, or back on shard 0.
        let gate = Arc::new(Gate::new());
        let restarter = {
            let shared = Arc::clone(&shared);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                gate.wait_for(1);
                redistribute_queue(&shared.rt, 0);
            })
        };
        let mut stolen = Vec::new();
        gate.arrive(1);
        while !restarter.is_finished() {
            if let Some(job) = steal_job(&shared.rt, &shared.rt.shards[1], false) {
                stolen.push(job.id);
            }
        }
        restarter.join().unwrap();
        while let Some(job) = steal_job(&shared.rt, &shared.rt.shards[1], false) {
            stolen.push(job.id);
        }
        let mut seen = stolen;
        for shard in &shared.rt.shards {
            while let Some(job) = shard.queue.try_pop() {
                seen.push(job.id);
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..K).collect::<Vec<_>>(), "no pair lost, none duplicated");
        h.crash();
    }

    #[test]
    fn exhausted_restart_budget_quarantines_and_fails_leftovers_typed() {
        let h = server(ServerConfig {
            exec: ExecutorConfig { jobs: 2, ..ExecutorConfig::default() },
            shards: 2,
            ..ServerConfig::default()
        });
        let shared = Arc::clone(&h.shared);
        park_workers(&shared);
        // No live sibling: the requeue sweep has nowhere to move the
        // jobs, so they come back to shard 0 and meet the quarantine.
        shared.rt.shards[1].state.store(SHARD_DEGRADED, Ordering::SeqCst);
        let (tx, rx) = mpsc::channel();
        for id in 0..3 {
            shared.rt.shards[0]
                .queue
                .try_push(parked_job(id, &tx))
                .unwrap_or_else(|_| panic!("job {id} must fit the shard queue"));
        }
        let max = u64::from(shared.cfg.supervisor.max_restarts);
        shared.rt.shards[0].restarts.store(max, Ordering::SeqCst);
        restart_shard(&shared.rt, 0, &mut None);
        assert_eq!(shared.rt.shards[0].state.load(Ordering::SeqCst), SHARD_QUARANTINED);
        assert_eq!(shared.rt.shards[0].queue.depth(), 0, "nothing may rot on a dead queue");
        for _ in 0..3 {
            match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
                WriterMsg::Done(completion) => match completion.result {
                    Err(AlignError::Internal(msg)) => {
                        assert!(msg.contains("quarantined"), "typed for resubmission: {msg}");
                    }
                    other => panic!("expected a typed quarantine failure, got {other:?}"),
                },
                _ => panic!("expected a completion"),
            }
        }
        // The lost capacity is re-advertised: occupancy (and therefore
        // brownout) is computed over live shards only.
        shared.rt.shards[1].state.store(SHARD_LIVE, Ordering::SeqCst);
        let (_, live_cap) = shared.rt.live_occupancy();
        let total_cap: usize = shared.rt.shards.iter().map(|s| s.queue.cap).sum();
        assert_eq!(live_cap, shared.rt.shards[1].queue.cap, "only live capacity counts");
        assert!(live_cap < total_cap, "quarantined capacity must not dilute occupancy");
        // Dispatch routes around the quarantined home shard.
        shared.rt.state.store(STATE_RUNNING, Ordering::SeqCst);
        shared.tenants.lock().unwrap().entry("t", Priority::Normal);
        let id = (0..64).find(|&id| home_shard("t", id, 2) == 0).unwrap();
        let (tx, _rx2) = mpsc::channel();
        admit(
            &shared,
            &tx,
            "t",
            Priority::Normal,
            None,
            id,
            "ACGT",
            "ACGT",
            &std::collections::HashSet::new(),
            &Arc::new(AtomicUsize::new(0)),
        );
        assert_eq!(shared.rt.shards[0].dispatched.load(Ordering::SeqCst), 0);
        assert_eq!(shared.rt.shards[1].dispatched.load(Ordering::SeqCst), 1);
        h.crash();
    }

    #[test]
    fn drain_does_not_wait_out_the_supervisor_interval() {
        let h = server(ServerConfig {
            supervisor: SupervisorConfig {
                interval: Duration::from_secs(10),
                ..SupervisorConfig::default()
            },
            ..ServerConfig::default()
        });
        let t0 = Instant::now();
        h.drain();
        let took = t0.elapsed();
        assert!(took < Duration::from_secs(2), "drain slept through the supervisor: {took:?}");
    }

    /// Whether anything still listens on `addr`'s port over loopback.
    fn listening(addr: SocketAddr) -> bool {
        TcpStream::connect_timeout(&wake_addr(addr), Duration::from_secs(1)).is_ok()
    }

    #[test]
    fn idle_drain_and_crash_wake_the_blocked_accept_promptly() {
        for crash in [false, true] {
            let h = server(ServerConfig::default());
            let addr = h.addr();
            let t0 = Instant::now();
            if crash {
                h.crash();
            } else {
                h.drain();
            }
            let took = t0.elapsed();
            assert!(took < Duration::from_secs(2), "crash={crash}: wind-down took {took:?}");
            // The accept thread was woken and joined, so the listener
            // is closed: nothing is left blocked in accept().
            assert!(!listening(addr), "crash={crash}: the listener outlived the wind-down");
        }
    }

    #[test]
    fn wildcard_bind_is_woken_through_loopback() {
        let dev = SmxDevice::new(AlignmentConfig::DnaEdit, 4).unwrap();
        let h = Server::bind(dev, ServerConfig::default(), "0.0.0.0:0").unwrap();
        let addr = h.addr();
        assert!(addr.ip().is_unspecified());
        let mut c = Client::connect(wake_addr(addr)).unwrap();
        hello(&mut c, "-", "t", Priority::Normal, 0);
        c.send(&Request::Bye).unwrap();
        assert!(matches!(c.recv().unwrap(), Some(Response::Done { .. })));
        let t0 = Instant::now();
        h.drain();
        assert!(t0.elapsed() < Duration::from_secs(2), "{:?}", t0.elapsed());
        assert!(!listening(addr), "the wildcard accept thread was detached, not woken");
    }

    #[test]
    fn wake_addr_maps_wildcards_to_the_loopback_of_their_family() {
        let cases = [
            ("0.0.0.0:7", "127.0.0.1:7"),
            ("[::]:7", "[::1]:7"),
            ("127.0.0.1:7", "127.0.0.1:7"),
            ("10.1.2.3:7", "10.1.2.3:7"),
            ("[fe80::1]:7", "[fe80::1]:7"),
        ];
        for (bound, want) in cases {
            let bound: SocketAddr = bound.parse().unwrap();
            assert_eq!(wake_addr(bound), want.parse::<SocketAddr>().unwrap(), "{bound}");
        }
    }

    #[test]
    fn a_client_arriving_mid_wind_down_gets_eof_or_err_and_leaks_no_thread() {
        let h = server(ServerConfig::default());
        let addr = h.addr();
        let shared = Arc::clone(&h.shared);
        // A connected session keeps the wind-down busy until its reader
        // notices the drain on its next read timeout.
        let mut held = Client::connect(addr).unwrap();
        hello(&mut held, "-", "held", Priority::Normal, 0);
        let drainer = std::thread::spawn(move || h.drain());
        while shared.rt.state() == STATE_RUNNING {
            std::thread::sleep(Duration::from_millis(1));
        }
        // The listener may already be closed (connect refused); if it
        // is not, the late client must be turned away, not left waiting.
        if let Ok(mut late) = Client::connect(addr) {
            late.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            // The send may already hit a closed socket; only the answer
            // (or its absence) matters.
            let _ = late.send(&Request::Hello {
                session: "-".into(),
                tenant: "late".into(),
                priority: Priority::Normal,
                deadline_ms: 0,
            });
            match late.recv() {
                Ok(None) | Ok(Some(Response::Err(_))) => {}
                Err(ProtoError::Io(e)) => assert!(
                    !matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ),
                    "the late client hung: {e}"
                ),
                other => panic!("expected EOF or ERR, got {other:?}"),
            }
        }
        assert!(matches!(held.recv().unwrap(), Some(Response::Done { .. })));
        let report = drainer.join().unwrap();
        assert!(report.per_tenant.iter().all(|(t, _)| t != "late"), "the late client was admitted");
        assert_eq!(shared.conns.load(Ordering::SeqCst), 0);
        assert!(relock(&shared.conn_threads).is_empty(), "a connection thread leaked");
    }

    #[test]
    fn finished_connection_threads_are_reaped() {
        let h = server(ServerConfig::default());
        let shared = Arc::clone(&h.shared);
        for i in 0..32 {
            let mut c = Client::connect(h.addr()).unwrap();
            hello(&mut c, "-", "t", Priority::Normal, 0);
            c.send(&Request::Bye).unwrap();
            assert!(matches!(c.recv().unwrap(), Some(Response::Done { .. })), "cycle {i}");
            let t0 = Instant::now();
            while shared.conns.load(Ordering::SeqCst) > 0 && t0.elapsed() < Duration::from_secs(5) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        // Each accept reaps the threads that have finished, so only the
        // last connection or two can still be registered.
        let registered = relock(&shared.conn_threads).len();
        assert!(registered <= 3, "{registered} handles kept after 32 closed connections");
        h.drain();
    }

    #[test]
    fn a_connection_over_max_conns_is_refused_typed_and_the_others_keep_working() {
        let h = server(ServerConfig { max_conns: 1, ..ServerConfig::default() });
        let mut first = Client::connect(h.addr()).unwrap();
        hello(&mut first, "-", "t", Priority::Normal, 0);
        // The over-limit client sends nothing: unread bytes at close
        // would turn the server's FIN into a reset and hide the frame.
        let mut over = Client::connect(h.addr()).unwrap();
        over.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        match over.recv().unwrap() {
            Some(Response::Err(msg)) => {
                assert!(msg.contains("connection capacity reached"), "{msg}");
            }
            other => panic!("expected a capacity ERR, got {other:?}"),
        }
        assert!(over.recv().unwrap().is_none(), "the refused connection is closed");
        first
            .send(&Request::Pair { id: 0, query: "ACGT".into(), reference: "ACGA".into() })
            .unwrap();
        assert!(matches!(first.recv().unwrap(), Some(Response::Result { id: 0, .. })));
        first.send(&Request::Bye).unwrap();
        assert!(matches!(first.recv().unwrap(), Some(Response::Done { completed: 1, .. })));
        let report = h.drain();
        assert_eq!(report.totals.completed, 1);
    }

    #[test]
    fn late_retry_backoff_fails_fast_instead_of_napping_past_the_deadline() {
        use smx_coproc::faults::{FaultPlan, RecoveryPolicy};
        let mut dev = SmxDevice::new(AlignmentConfig::DnaEdit, 4).unwrap();
        // Persistent faults + strict recovery + no degradation: every
        // device attempt escalates a recoverable RecoveryExhausted, so
        // the server-side retry loop is what's under test.
        dev.enable_fault_injection(
            FaultPlan::new(7, 1.0).with_persistence(1.0),
            RecoveryPolicy::strict(),
        );
        dev.set_graceful_degradation(false);
        let h = Server::bind(
            dev,
            ServerConfig {
                // A backoff that can never fit a 300 ms deadline: the
                // old behaviour napped the full remaining budget before
                // discovering the retry was doomed.
                retry: RetryConfig { attempts: 4, backoff: Duration::from_millis(400) },
                ..ServerConfig::default()
            },
            "127.0.0.1:0",
        )
        .unwrap();
        let mut c = Client::connect(h.addr()).unwrap();
        hello(&mut c, "-", "t", Priority::Normal, 300);
        let t0 = Instant::now();
        let q = "GATTACA".repeat(16);
        let r = "GATTACC".repeat(16);
        c.send(&Request::Pair { id: 0, query: q, reference: r }).unwrap();
        match c.recv().unwrap().unwrap() {
            Response::Fail { id, kind, .. } => {
                assert_eq!(id, 0);
                assert_eq!(kind, FailKind::Deadline, "typed as a deadline, not a device fault");
            }
            other => panic!("expected a deadline FAIL, got {other:?}"),
        }
        let elapsed = t0.elapsed();
        assert!(
            elapsed < Duration::from_millis(250),
            "the doomed retry must fail fast, not sleep out the deadline: {elapsed:?}"
        );
        let report = h.drain();
        assert_eq!(report.totals.deadline_exceeded, 1);
    }
}
