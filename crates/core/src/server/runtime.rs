//! The executor runtime (DESIGN.md §5.1, §12): sharded bounded queues,
//! worker threads, work stealing, and the shard supervisor — the only
//! executor in the crate. [`crate::service::BatchExecutor`] is an
//! in-process client of a one-shard runtime; [`super::Server`] runs one
//! behind the TCP front door. The callers' four differences are values,
//! not code paths: [`Policy::brownout`], [`Policy::retry`],
//! [`Policy::supervisor`], and [`Job::deadline`] (absolute from
//! admission, or the executor's budget counted from dequeue).

// A refused push hands the job back by value, so the caller can spill,
// shed, or fail it without boxing every job.
#![allow(clippy::result_large_err)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use smx_align_core::{AlignError, Alignment, Sequence};
use smx_coproc::control::CancelToken;

use crate::orchestrator::SmxDevice;
use crate::pool::DevicePool;
use crate::service::{self, AdmissionPolicy, ExecutorConfig, PairMeta, ShardPlan};

use super::tenant::{BrownoutConfig, BrownoutLevel, Priority};
use super::{relock, RetryConfig, ServerCounters, ShardSnapshot, SupervisorConfig};

pub(crate) const STATE_RUNNING: u8 = 0;
pub(crate) const STATE_DRAINING: u8 = 1;
pub(crate) const STATE_CRASHED: u8 = 2;

pub(crate) const SHARD_LIVE: u8 = 0;
pub(crate) const SHARD_DEGRADED: u8 = 1;
const SHARD_RESTARTING: u8 = 2;
pub(crate) const SHARD_QUARANTINED: u8 = 3;

/// What a job's reply channel carries: anything a [`Completion`]
/// converts into.
pub(crate) trait Reply: From<Completion> + Send + 'static {}

impl<M: From<Completion> + Send + 'static> Reply for M {}

/// The caller-specific behaviour of one runtime (see the module docs).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Policy {
    /// Independent shards the executor configuration splits into.
    pub(crate) shards: usize,
    /// Whether idle workers steal from sibling shards.
    pub(crate) steal: bool,
    /// Brownout ladder over queue occupancy; `None` never browns out.
    pub(crate) brownout: Option<BrownoutConfig>,
    /// Retry budget for recoverable device faults.
    pub(crate) retry: RetryConfig,
    /// Wedge detection; `None` starts no supervisor thread.
    pub(crate) supervisor: Option<SupervisorConfig>,
}

/// One admitted pair flowing to the workers.
pub(crate) struct Job<M> {
    /// The caller's pair id, echoed in the [`Completion`].
    pub(crate) id: usize,
    /// Audit-sample index, assigned by the caller at admission.
    pub(crate) seq: usize,
    pub(crate) priority: Priority,
    pub(crate) query: Sequence,
    pub(crate) reference: Sequence,
    /// Absolute deadline fixed at admission, plus the original budget in
    /// ms (for the typed error when it expires in the queue). `None`
    /// leaves the executor's per-pair `deadline` budget, which starts
    /// when a worker dequeues the pair.
    pub(crate) deadline: Option<(Instant, u64)>,
    pub(crate) reply: mpsc::Sender<M>,
}

/// One pair's outcome, sent back on its job's reply channel.
#[derive(Debug)]
pub(crate) struct Completion {
    pub(crate) id: usize,
    pub(crate) result: Result<Alignment, AlignError>,
    /// Served on the software baseline because brownout degraded it.
    pub(crate) degraded: bool,
    /// Routing metadata; `None` when the pair never reached the pool.
    pub(crate) meta: Option<PairMeta>,
}

/// Three-class strict-priority bounded queue with closing semantics.
pub(crate) struct ShardQueue<M> {
    pub(crate) cap: usize,
    inner: Mutex<QueueInner<M>>,
    ready: Condvar,
    not_full: Condvar,
}

struct QueueInner<M> {
    classes: [VecDeque<Job<M>>; 3],
    len: usize,
    max_depth: usize,
    closed: bool,
}

impl<M> QueueInner<M> {
    fn push(&mut self, job: Job<M>) {
        let class = job.priority.class();
        if let Some(q) = self.classes.get_mut(class) {
            q.push_back(job);
            self.len += 1;
            self.max_depth = self.max_depth.max(self.len);
        }
    }

    fn pop(&mut self) -> Option<Job<M>> {
        let job = self.classes.iter_mut().find_map(VecDeque::pop_front)?;
        self.len -= 1;
        Some(job)
    }
}

impl<M> ShardQueue<M> {
    pub(crate) fn new(cap: usize) -> ShardQueue<M> {
        ShardQueue {
            cap,
            inner: Mutex::new(QueueInner {
                classes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                len: 0,
                max_depth: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Queues `job` without waiting; a full queue hands it back.
    pub(crate) fn try_push(&self, job: Job<M>) -> Result<(), Job<M>> {
        let mut inner = relock(&self.inner);
        if inner.len >= self.cap {
            return Err(job);
        }
        inner.push(job);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Queues `job`, waiting for a slot (lossless backpressure). A
    /// closed queue hands the job back instead of waiting forever.
    pub(crate) fn push_blocking(&self, job: Job<M>) -> Result<(), Job<M>> {
        let mut inner = relock(&self.inner);
        while inner.len >= self.cap && !inner.closed {
            inner = self.not_full.wait(inner).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        if inner.closed {
            return Err(job);
        }
        inner.push(job);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Highest-priority job right now, without waiting (the steal and
    /// drain-sweep entry point).
    pub(crate) fn try_pop(&self) -> Option<Job<M>> {
        let job = relock(&self.inner).pop()?;
        self.not_full.notify_one();
        Some(job)
    }

    /// Highest-priority job, waiting up to `timeout` for one to arrive.
    /// Bounded so the worker loop keeps beating its heartbeat and
    /// checking for steals and its own retirement; a closed queue
    /// returns at once.
    pub(crate) fn pop_within(&self, timeout: Duration) -> Option<Job<M>> {
        let mut inner = relock(&self.inner);
        if inner.len == 0 && !inner.closed {
            inner = self
                .ready
                .wait_timeout(inner, timeout)
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
        }
        let job = inner.pop()?;
        drop(inner);
        self.not_full.notify_one();
        Some(job)
    }

    /// Closes the queue: waiters wake at once and no pop waits again.
    /// The flag is set under the lock, so a worker about to wait cannot
    /// miss the wake-up.
    pub(crate) fn close(&self) {
        relock(&self.inner).closed = true;
        self.ready.notify_all();
        self.not_full.notify_all();
    }

    pub(crate) fn depth(&self) -> usize {
        relock(&self.inner).len
    }

    pub(crate) fn max_depth(&self) -> usize {
        relock(&self.inner).max_depth
    }
}

/// One executor shard: a disjoint slice of the worker threads and the
/// device pool behind its own bounded queue. Every field a sibling
/// shard or the supervisor reads is atomic — a shard that wedges with
/// its own queue lock held cannot stall anyone sampling its state.
pub(crate) struct Shard<M> {
    pub(crate) id: usize,
    pub(crate) queue: ShardQueue<M>,
    pub(crate) pool: DevicePool,
    /// Worker threads this shard runs (the respawn count).
    jobs: usize,
    /// Lifecycle: `SHARD_LIVE` → `SHARD_DEGRADED` → `SHARD_RESTARTING`
    /// → back to live, or `SHARD_QUARANTINED` once the restart budget
    /// is spent.
    pub(crate) state: AtomicU8,
    /// Bumped on restart; workers exit when their spawn generation is
    /// no longer current, so a wedged worker that finally wakes cannot
    /// rejoin a shard that moved on without it.
    pub(crate) generation: AtomicU64,
    /// Bumped once per worker loop iteration — including idle
    /// iterations, where the bounded queue wait wakes the worker every
    /// 20 ms — so a frozen heartbeat alone is the supervisor's wedge
    /// signal.
    heartbeat: AtomicU64,
    pub(crate) dispatched: AtomicU64,
    completed: AtomicU64,
    pub(crate) stolen_from: AtomicU64,
    pub(crate) stolen_by: AtomicU64,
    pub(crate) restarts: AtomicU64,
    failovers: AtomicU64,
    last_failover_ms: AtomicU64,
    /// Current-generation worker handles (swapped on restart).
    pub(crate) workers: Mutex<Vec<JoinHandle<()>>>,
    /// Abandoned prior-generation workers, joined at wind-down: they
    /// exit on their own once whatever wedged them releases.
    retired: Mutex<Vec<JoinHandle<()>>>,
}

impl<M> Shard<M> {
    pub(crate) fn snapshot(&self) -> ShardSnapshot {
        ShardSnapshot {
            id: self.id,
            state: match self.state.load(Ordering::SeqCst) {
                SHARD_LIVE => "live",
                SHARD_DEGRADED => "degraded",
                SHARD_RESTARTING => "restarting",
                _ => "quarantined",
            },
            dispatched: self.dispatched.load(Ordering::SeqCst),
            completed: self.completed.load(Ordering::SeqCst),
            stolen_from: self.stolen_from.load(Ordering::SeqCst),
            stolen_by: self.stolen_by.load(Ordering::SeqCst),
            restarts: self.restarts.load(Ordering::SeqCst),
            failovers: self.failovers.load(Ordering::SeqCst),
            last_failover_ms: self.last_failover_ms.load(Ordering::SeqCst),
            queue_depth: self.queue.depth(),
            max_queue_depth: self.queue.max_depth(),
        }
    }
}

/// The running executor: shards, their workers, the optional
/// supervisor, and the counters every completion books into.
pub(crate) struct Runtime<M> {
    exec: ExecutorConfig,
    policy: Policy,
    pub(crate) shards: Vec<Shard<M>>,
    /// `STATE_RUNNING`, `STATE_DRAINING`, or `STATE_CRASHED`.
    pub(crate) state: AtomicU8,
    /// Runtime-wide token: cancelling it aborts every in-flight pair at
    /// the next tile boundary and fails every queued one fast.
    pub(crate) token: CancelToken,
    /// Fault-disabled template device: cloned for each worker's software
    /// path and the drain sweep.
    template: Mutex<SmxDevice>,
    pub(crate) counters: Mutex<ServerCounters>,
    /// Worst brownout level observed, as its rank.
    pub(crate) brownout_peak: AtomicUsize,
    supervisor: Mutex<Option<JoinHandle<()>>>,
}

impl<M: Reply> Runtime<M> {
    /// Splits `exec` into `policy.shards` shards over pools cloned from
    /// `device`, then starts every worker and, if configured, the
    /// supervisor. `exec` must already be validated.
    ///
    /// # Errors
    ///
    /// An impossible shard split or a pool that cannot be built.
    pub(crate) fn start(
        device: &SmxDevice,
        exec: ExecutorConfig,
        policy: Policy,
        token: CancelToken,
    ) -> Result<Arc<Runtime<M>>, AlignError> {
        let plan = ShardPlan::split(&exec, policy.shards)?;
        // Each shard gets an equal slice of the queue budget (at least
        // one slot), so total capacity tracks `queue_cap`.
        let shard_cap = exec.queue_cap.div_ceil(policy.shards).max(1);
        let shards = plan
            .jobs
            .iter()
            .zip(plan.devices.iter().zip(plan.device_base.iter()))
            .enumerate()
            .map(|(id, (&jobs, (&devices, &device_base)))| {
                Ok(Shard {
                    id,
                    queue: ShardQueue::new(shard_cap),
                    pool: DevicePool::new(
                        device,
                        devices,
                        device_base,
                        exec.breaker,
                        exec.quarantine,
                    )?,
                    jobs,
                    state: AtomicU8::new(SHARD_LIVE),
                    generation: AtomicU64::new(0),
                    heartbeat: AtomicU64::new(0),
                    dispatched: AtomicU64::new(0),
                    completed: AtomicU64::new(0),
                    stolen_from: AtomicU64::new(0),
                    stolen_by: AtomicU64::new(0),
                    restarts: AtomicU64::new(0),
                    failovers: AtomicU64::new(0),
                    last_failover_ms: AtomicU64::new(0),
                    workers: Mutex::new(Vec::new()),
                    retired: Mutex::new(Vec::new()),
                })
            })
            .collect::<Result<Vec<_>, AlignError>>()?;
        let mut template = device.clone();
        template.disable_fault_injection();
        let rt = Arc::new(Runtime {
            exec,
            policy,
            shards,
            state: AtomicU8::new(STATE_RUNNING),
            token,
            template: Mutex::new(template),
            counters: Mutex::new(ServerCounters::default()),
            brownout_peak: AtomicUsize::new(0),
            supervisor: Mutex::new(None),
        });
        for s in 0..rt.shards.len() {
            spawn_shard_workers(&rt, s, 0);
        }
        if let Some(cfg) = policy.supervisor {
            let sup = Arc::clone(&rt);
            *relock(&rt.supervisor) = Some(std::thread::spawn(move || supervisor_loop(&sup, cfg)));
        }
        Ok(rt)
    }

    /// Queues `job` on the first live shard at or after `home`;
    /// `skip_home` routes around the home shard. Under `Shed` a full
    /// shard spills to the next; under `Block` the first live shard's
    /// queue is waited on. A job no live shard took is handed back.
    pub(crate) fn dispatch(
        &self,
        home: usize,
        skip_home: bool,
        admission: AdmissionPolicy,
        job: Job<M>,
    ) -> Result<(), Job<M>> {
        let n = self.shards.len();
        let mut job = job;
        for offset in usize::from(skip_home)..n {
            let Some(shard) = self.shards.get((home + offset) % n) else { continue };
            if shard.state.load(Ordering::SeqCst) != SHARD_LIVE {
                continue;
            }
            let pushed = match admission {
                AdmissionPolicy::Block => shard.queue.push_blocking(job),
                AdmissionPolicy::Shed => shard.queue.try_push(job),
            };
            match pushed {
                Ok(()) => {
                    shard.dispatched.fetch_add(1, Ordering::SeqCst);
                    return Ok(());
                }
                Err(back) => job = back,
            }
        }
        Err(job)
    }

    /// Stops the runtime: flips the state, wakes every waiter at once,
    /// and joins the supervisor and every worker. `STATE_DRAINING`
    /// flushes every queued pair first; `STATE_CRASHED` abandons them.
    pub(crate) fn stop(&self, state: u8) {
        self.state.store(state, Ordering::SeqCst);
        for shard in &self.shards {
            shard.queue.close();
        }
        let supervisor = relock(&self.supervisor).take();
        if let Some(supervisor) = supervisor {
            supervisor.thread().unpark();
            let _ = supervisor.join();
        }
        for shard in &self.shards {
            let workers = std::mem::take(&mut *relock(&shard.workers));
            let retired = std::mem::take(&mut *relock(&shard.retired));
            for w in workers.into_iter().chain(retired) {
                let _ = w.join();
            }
        }
        // Belt-and-braces drain sweep: if a restart/quarantine race left
        // a job queued anywhere after every worker exited, flush it on
        // the software baseline rather than strand its client. Crash
        // skips this — a dead process flushes nothing.
        if state == STATE_DRAINING {
            let mut sw = relock(&self.template).clone();
            for shard in &self.shards {
                while let Some(job) = shard.queue.try_pop() {
                    run_job(self, shard, job, &mut sw);
                }
            }
        }
    }
}

impl<M> Runtime<M> {
    pub(crate) fn state(&self) -> u8 {
        self.state.load(Ordering::SeqCst)
    }

    /// Queue occupancy over *live* capacity: a quarantined shard's
    /// queue slots no longer exist as far as admission is concerned,
    /// so losing a shard makes the survivors brown out earlier instead
    /// of the fleet pretending it still has the dead capacity.
    pub(crate) fn live_occupancy(&self) -> (usize, usize) {
        let mut depth = 0;
        let mut cap = 0;
        for s in &self.shards {
            if s.state.load(Ordering::SeqCst) != SHARD_QUARANTINED {
                depth += s.queue.depth();
                cap += s.queue.cap;
            }
        }
        (depth, cap)
    }

    pub(crate) fn brownout(&self) -> BrownoutLevel {
        let Some(cfg) = &self.policy.brownout else { return BrownoutLevel::Normal };
        let (depth, cap) = self.live_occupancy();
        let level = BrownoutLevel::from_occupancy(cfg, depth, cap);
        self.brownout_peak.fetch_max(level.rank(), Ordering::Relaxed);
        level
    }
}

/// Spawns one generation of workers for shard `s`, replacing the
/// handle set. Each worker gets its own fault-disabled software
/// device clone (the degraded/brownout path must never fault).
fn spawn_shard_workers<M: Reply>(rt: &Arc<Runtime<M>>, s: usize, generation: u64) {
    let Some(shard) = rt.shards.get(s) else { return };
    let handles = (0..shard.jobs)
        .map(|_| {
            let rt = Arc::clone(rt);
            let mut sw = relock(&rt.template).clone();
            std::thread::spawn(move || worker_loop(&rt, s, generation, &mut sw))
        })
        .collect();
    *relock(&shard.workers) = handles;
}

/// Steals the highest-priority queued job from the deepest sibling
/// queue. `sweep` widens the victim set to every shard regardless of
/// state — the drain path, where flushing beats affinity.
pub(crate) fn steal_job<'a, M>(
    rt: &'a Runtime<M>,
    thief: &Shard<M>,
    sweep: bool,
) -> Option<Job<M>> {
    let mut victim: Option<(&'a Shard<M>, usize)> = None;
    for shard in &rt.shards {
        if shard.id == thief.id {
            continue;
        }
        if !sweep && shard.state.load(Ordering::SeqCst) == SHARD_QUARANTINED {
            continue;
        }
        let depth = shard.queue.depth();
        if depth > 0 && victim.is_none_or(|(_, best)| depth > best) {
            victim = Some((shard, depth));
        }
    }
    let (victim, _) = victim?;
    let job = victim.queue.try_pop()?;
    victim.stolen_from.fetch_add(1, Ordering::SeqCst);
    thief.stolen_by.fetch_add(1, Ordering::SeqCst);
    Some(job)
}

/// One shard worker: beats the shard heartbeat, pops its own queue in
/// priority order (stealing from overloaded siblings when idle), and
/// exits when the runtime stops or its spawn generation is retired by
/// a shard restart.
fn worker_loop<M: Reply>(rt: &Runtime<M>, shard_id: usize, generation: u64, sw: &mut SmxDevice) {
    let Some(shard) = rt.shards.get(shard_id) else { return };
    loop {
        if shard.generation.load(Ordering::SeqCst) != generation {
            return;
        }
        match rt.state() {
            STATE_CRASHED => return,
            STATE_DRAINING => {
                // Flush everything reachable — own queue first, then a
                // fleet-wide sweep so a wedged sibling's queued pairs
                // still make it out — and exit.
                while let Some(job) = shard.queue.try_pop().or_else(|| steal_job(rt, shard, true)) {
                    run_job(rt, shard, job, sw);
                }
                return;
            }
            _ => {}
        }
        // Failpoint `shard.heartbeat` (lane = shard id): an injected
        // error swallows this beat — the worker idles without touching
        // its queue or heartbeat, which is exactly what a wedged worker
        // looks like to the supervisor. `delay` wedges by sleeping here
        // (inside the registry), `kill` dies mid-beat for crash tests.
        if smx_failpoint::hit_lane("shard.heartbeat", shard_id as u32).is_some() {
            std::thread::sleep(Duration::from_millis(5));
            continue;
        }
        shard.heartbeat.fetch_add(1, Ordering::SeqCst);
        let job = shard.queue.pop_within(Duration::from_millis(20));
        let job = job.or_else(|| rt.policy.steal.then(|| steal_job(rt, shard, false)).flatten());
        if let Some(job) = job {
            run_job(rt, shard, job, sw);
        }
    }
}

/// Runs one queued pair to completion: deadline at dequeue, the
/// brownout ladder, the shared per-pair seam ([`service::run_pair`]:
/// breaker, audit, hedge, quarantine and all), plus the retry budget.
fn run_job<M: Reply>(rt: &Runtime<M>, shard: &Shard<M>, job: Job<M>, sw: &mut SmxDevice) {
    let level = rt.brownout();
    let retry = rt.policy.retry;
    let (mut retries, mut degraded, mut meta) = (0u32, false, None);
    let result = 'run: {
        // A pair that expired while queued must not burn device time.
        if let Some((at, budget_ms)) = job.deadline {
            if Instant::now() >= at {
                break 'run Err(AlignError::DeadlineExceeded { budget_ms });
            }
        }
        degraded = level >= BrownoutLevel::DegradingLow && job.priority == Priority::Low;
        let mut cfg = rt.exec.clone();
        if level >= BrownoutLevel::SheddingExtras {
            // Shed the runtime's own luxuries before touching anyone's
            // traffic: audits and hedges cost device/host time.
            cfg.audit = None;
            cfg.hedge = None;
        }
        loop {
            if let Some((at, _)) = job.deadline {
                cfg.deadline = Some(at.saturating_duration_since(Instant::now()));
            }
            let attempt = if degraded {
                let token = service::remaining_token(&rt.token, cfg.deadline, Instant::now());
                service::attempt_on_software(sw, &job.query, &job.reference, token)
            } else {
                let (r, m) = service::run_pair(
                    &shard.pool,
                    sw,
                    job.seq,
                    &job.query,
                    &job.reference,
                    &cfg,
                    &rt.token,
                );
                meta = Some(m);
                r
            };
            let retryable = attempt.as_ref().err().is_some_and(AlignError::is_recoverable_fault);
            let expired = job.deadline.is_some_and(|(at, _)| Instant::now() >= at);
            if !retryable || retries >= retry.attempts || expired || rt.state() == STATE_CRASHED {
                break 'run attempt;
            }
            let backoff = retry.backoff * (retries + 1);
            if let Some((at, budget_ms)) = job.deadline {
                // Clip against the *remaining* deadline at this attempt,
                // not just the first: if the backoff would sleep to (or
                // past) the deadline, the retry is doomed before it
                // starts — fail typed now instead of napping into a
                // guaranteed deadline failure.
                if backoff >= at.saturating_duration_since(Instant::now()) {
                    break 'run Err(AlignError::DeadlineExceeded { budget_ms });
                }
            }
            retries += 1;
            std::thread::sleep(backoff);
        }
    };
    finish(rt, &job, Completion { id: job.id, result, degraded, meta }, retries);
    shard.completed.fetch_add(1, Ordering::SeqCst);
}

/// The supervisor: samples every shard's `(heartbeat, completed)`
/// progress each `interval` and walks the containment ladder on any
/// shard whose sample freezes — the chaos storm's stagnation
/// criterion applied in-process. Parks between samples, so
/// [`Runtime::stop`] wakes it at once; restarts never race a drain.
fn supervisor_loop<M: Reply>(rt: &Arc<Runtime<M>>, cfg: SupervisorConfig) {
    /// Per-shard stagnation tracker, private to the supervisor.
    #[derive(Clone)]
    struct Watch {
        last: (u64, u64),
        stale: u32,
        wedged_since: Option<Instant>,
    }
    let mut watch =
        vec![Watch { last: (u64::MAX, u64::MAX), stale: 0, wedged_since: None }; rt.shards.len()];
    loop {
        let wake = Instant::now() + cfg.interval;
        loop {
            if rt.state() != STATE_RUNNING {
                return;
            }
            let now = Instant::now();
            if now >= wake {
                break;
            }
            std::thread::park_timeout(wake - now);
        }
        for (s, (shard, w)) in rt.shards.iter().zip(watch.iter_mut()).enumerate() {
            let state = shard.state.load(Ordering::SeqCst);
            if state == SHARD_QUARANTINED || state == SHARD_RESTARTING {
                continue;
            }
            let beat =
                (shard.heartbeat.load(Ordering::SeqCst), shard.completed.load(Ordering::SeqCst));
            // Even an idle worker beats every 20 ms, so a frozen sample
            // is stagnation regardless of queue depth: an idle wedged
            // shard must not sit live, black-holing later dispatches
            // (DESIGN.md §12).
            if beat == w.last {
                w.stale += 1;
            } else {
                w.stale = 0;
                if state == SHARD_DEGRADED {
                    // The wedge cleared on its own (a transient stall):
                    // lift the degradation without burning a restart.
                    shard.state.store(SHARD_LIVE, Ordering::SeqCst);
                    record_failover(shard, &mut w.wedged_since);
                }
            }
            w.last = beat;
            if w.stale >= cfg.stale_intervals {
                w.stale = 0;
                match state {
                    SHARD_LIVE => {
                        // Rung 1: steal-only. Dispatch routes around the
                        // shard; siblings drain its queue.
                        shard.state.store(SHARD_DEGRADED, Ordering::SeqCst);
                        w.wedged_since = Some(Instant::now());
                    }
                    SHARD_DEGRADED => restart_shard(rt, s, &mut w.wedged_since),
                    _ => {}
                }
            }
        }
    }
}

fn record_failover<M>(shard: &Shard<M>, wedged_since: &mut Option<Instant>) {
    if let Some(t) = wedged_since.take() {
        shard.failovers.fetch_add(1, Ordering::SeqCst);
        shard
            .last_failover_ms
            .store(t.elapsed().as_millis().min(u128::from(u64::MAX)) as u64, Ordering::SeqCst);
    }
}

/// Rung 2 of the ladder: drain-and-restart shard `s` in place —
/// requeue-before-restart (queued pairs move to live siblings *before*
/// the old workers are retired, so a kill at any point loses nothing
/// that was acked), retire the wedged worker generation, respawn. Rung
/// 3: once the restart budget is spent, quarantine the shard for good
/// and re-advertise the lost capacity to admission.
pub(crate) fn restart_shard<M: Reply>(
    rt: &Arc<Runtime<M>>,
    s: usize,
    wedged_since: &mut Option<Instant>,
) {
    let Some(shard) = rt.shards.get(s) else { return };
    shard.state.store(SHARD_RESTARTING, Ordering::SeqCst);
    let restarts = shard.restarts.fetch_add(1, Ordering::SeqCst) + 1;

    // Requeue-before-restart: every queued pair finds a live home (or
    // comes straight back to this queue for the fresh generation).
    redistribute_queue(rt, s);

    // Failpoint `shard.restart` (lane = shard id): `error` fails this
    // restart attempt — the shard falls back to degraded and the next
    // stagnation round retries, marching toward quarantine; `kill`
    // dies between requeue and respawn (the window requeue-before-
    // restart exists to make safe).
    let restart_failed = smx_failpoint::hit_lane("shard.restart", s as u32).is_some();

    // Retire the wedged generation: whatever finally un-wedges those
    // workers, the generation check sends them straight to exit, and
    // `stop` joins them.
    shard.generation.fetch_add(1, Ordering::SeqCst);
    let handles = std::mem::take(&mut *relock(&shard.workers));
    relock(&shard.retired).extend(handles);

    let max_restarts = rt.policy.supervisor.map_or(0, |c| c.max_restarts);
    if restarts > u64::from(max_restarts) {
        shard.state.store(SHARD_QUARANTINED, Ordering::SeqCst);
        // Anything the redistribute had to leave on this queue can
        // never be served here again: fail it typed so the client
        // can resubmit (it lands on a live shard next time).
        while let Some(job) = shard.queue.try_pop() {
            let detail = format!("shard {s} quarantined; resubmit the pair");
            fail(rt, &job, detail);
        }
        return;
    }
    if restart_failed {
        shard.state.store(SHARD_DEGRADED, Ordering::SeqCst);
        return;
    }
    let generation = shard.generation.load(Ordering::SeqCst);
    spawn_shard_workers(rt, s, generation);
    shard.state.store(SHARD_LIVE, Ordering::SeqCst);
    record_failover(shard, wedged_since);
}

/// Moves every queued pair off shard `s` onto live siblings, spilling
/// back onto `s`'s own (just-emptied) queue when no sibling has room.
pub(crate) fn redistribute_queue<M: Reply>(rt: &Runtime<M>, s: usize) {
    let Some(source) = rt.shards.get(s) else { return };
    let mut jobs = Vec::new();
    while let Some(job) = source.queue.try_pop() {
        jobs.push(job);
    }
    'jobs: for mut job in jobs {
        for (t, shard) in rt.shards.iter().enumerate() {
            if t == s || shard.state.load(Ordering::SeqCst) != SHARD_LIVE {
                continue;
            }
            match shard.queue.try_push(job) {
                Ok(()) => continue 'jobs,
                Err(back) => job = back,
            }
        }
        // No live sibling had room: back onto our own queue, which we
        // just emptied, so this cannot fail for more jobs than fit.
        if let Err(job) = source.queue.try_push(job) {
            fail(rt, &job, format!("shard {s} restart could not requeue the pair; resubmit"));
        }
    }
}

/// Fails a queued pair that can no longer be served, typed so the
/// client can resubmit it.
fn fail<M: Reply>(rt: &Runtime<M>, job: &Job<M>, detail: String) {
    let completion = Completion {
        id: job.id,
        result: Err(AlignError::Internal(detail)),
        degraded: false,
        meta: None,
    };
    finish(rt, job, completion, 0);
}

/// Books a completion into the counters and sends it on the job's reply
/// channel.
fn finish<M: Reply>(rt: &Runtime<M>, job: &Job<M>, completion: Completion, retries: u32) {
    {
        let mut c = relock(&rt.counters);
        c.retries += u64::from(retries);
        if completion.degraded {
            c.degraded_software += 1;
            c.software_pairs += 1;
        }
        match completion.meta.map(|m| m.route) {
            Some(service::Route::Software) => c.software_pairs += 1,
            Some(_) => c.device_pairs += 1,
            None => {}
        }
        c.completed += u64::from(completion.result.is_ok());
        c.failed += u64::from(completion.result.is_err());
        match &completion.result {
            Err(AlignError::DeadlineExceeded { .. }) => c.deadline_exceeded += 1,
            Err(AlignError::Cancelled) => c.cancelled += 1,
            _ => {}
        }
    }
    // A send failure means the caller is gone; the pair's outcome is
    // simply unacked (and therefore recomputable on resume).
    let _ = job.reply.send(M::from(completion));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_queue_pop_returns_at_once() {
        let queue = ShardQueue::<Completion>::new(4);
        queue.close();
        let t0 = Instant::now();
        assert!(queue.pop_within(Duration::from_secs(5)).is_none());
        assert!(t0.elapsed() < Duration::from_secs(1), "waited {:?}", t0.elapsed());
    }

    #[test]
    fn close_wakes_a_waiting_worker_at_once() {
        let queue = Arc::new(ShardQueue::<Completion>::new(4));
        let waiter = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                let t0 = Instant::now();
                let job = queue.pop_within(Duration::from_secs(5));
                (job.is_none(), t0.elapsed())
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        queue.close();
        let (empty, waited) = waiter.join().unwrap();
        assert!(empty);
        assert!(waited < Duration::from_secs(2), "the close was missed: waited {waited:?}");
    }
}
