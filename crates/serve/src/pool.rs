//! The sharded worker pool: bounded queues, explicit backpressure,
//! deadlines, priority shedding, coalesced batch execution, and
//! run-time precision-policy resolution.
//!
//! Layout: `N` workers, each owning one shard — a bounded FIFO queue
//! plus a private [`SweepCache`]. A job routes to the shard named by
//! its [`Job::class_hash`], so repeats of one job class warm one cache
//! and coalescible streams meet in one queue, where the worker folds
//! up to `coalesce_window` of them into a single
//! [`run_coalesced`] call.
//!
//! Submission takes a [`JobSpec`]: a [`Kernel`] plus a *policy
//! selector*. The precision policy is resolved **at submission time**
//! — pinned by the caller ([`PolicySel::Fixed`]), looked up in the
//! pool's per-tenant [`PolicyBook`] ([`PolicySel::Default`]), or
//! chosen by the [ULP-budget auto-tuner](crate::tuner)
//! ([`PolicySel::Auto`]) — so workers only ever see fully resolved
//! [`Job`]s and the replay oracle stays trivial.
//!
//! Overload policy, in order:
//! 1. a full shard queue **sheds** its lowest-priority queued job when
//!    a strictly higher-priority submission arrives (the shed job's
//!    handle reports [`JobOutcome::Shed`] — never a silent drop);
//! 2. otherwise the submission is refused with
//!    [`SubmitError::Rejected`] — the caller sees backpressure
//!    immediately, nothing blocks.
//!
//! Deadlines are checked when a worker picks the job up: an expired
//! job is reported as [`JobOutcome::TimedOut`] (and counted) instead
//! of being run late. Cancellation via [`JobHandle::cancel`] works the
//! same way. Workers never die: a panicking kernel is caught and
//! reported as [`JobOutcome::Failed`].

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fpfpga_fabric::tech::Tech;
use fpfpga_fpu::SweepCache;
use fpfpga_matmul::ErrorBudget;
use fpfpga_softfp::{FpFormat, PrecisionPolicy, RoundMode};

use crate::job::{run_coalesced, Job, JobResult, Kernel};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::tuner;

/// Scheduling priority. Shedding removes `Low` before `Normal` before
/// `High`; a submission can only displace strictly lower priorities.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Best-effort; first to be shed under overload.
    Low,
    /// The default.
    Normal,
    /// Sheds `Low`/`Normal` work when the queue is full.
    High,
}

/// How a [`JobSpec`] names its precision policy.
#[derive(Clone, Debug, PartialEq)]
pub enum PolicySel {
    /// Use the pool's [`PolicyBook`]: the submitting tenant's policy,
    /// or the book's default.
    Default,
    /// Exactly this policy.
    Fixed(PrecisionPolicy),
    /// Let the [auto-tuner](crate::tuner) pick the cheapest policy
    /// (by the fabric area model) that keeps the probe error within
    /// `budget`, with operands stored in `storage`.
    Auto {
        /// Storage format of the job's operands and results.
        storage: FpFormat,
        /// The accuracy the caller requires.
        budget: ErrorBudget,
    },
}

/// Per-tenant precision policies, consulted for
/// [`PolicySel::Default`] submissions.
#[derive(Clone, Debug, PartialEq)]
pub struct PolicyBook {
    default: PrecisionPolicy,
    tenants: HashMap<String, PrecisionPolicy>,
}

impl Default for PolicyBook {
    /// Uniform single precision for everyone — the pre-policy
    /// behaviour of the serving layer.
    fn default() -> PolicyBook {
        PolicyBook::new(PrecisionPolicy::uniform(FpFormat::SINGLE))
    }
}

impl PolicyBook {
    /// A book with the given default and no tenant overrides.
    pub fn new(default: PrecisionPolicy) -> PolicyBook {
        PolicyBook {
            default,
            tenants: HashMap::new(),
        }
    }

    /// Add (or replace) one tenant's policy.
    pub fn with_tenant(mut self, tenant: impl Into<String>, policy: PrecisionPolicy) -> PolicyBook {
        self.tenants.insert(tenant.into(), policy);
        self
    }

    /// The policy for `tenant` (the default for `None` or unknown
    /// tenants).
    pub fn policy_for(&self, tenant: Option<&str>) -> PrecisionPolicy {
        tenant
            .and_then(|t| self.tenants.get(t).copied())
            .unwrap_or(self.default)
    }
}

/// A kernel plus everything needed to schedule and resolve it: policy
/// selector, rounding mode, tenant, priority and deadline. Built
/// fluently from [`JobSpec::of`], or from a fully resolved [`Job`]
/// via `From`/[`JobSpec::new`].
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// The work.
    pub kernel: Kernel,
    /// How to pick the precision policy.
    pub policy: PolicySel,
    /// Rounding mode.
    pub mode: RoundMode,
    /// Submitting tenant, for [`PolicyBook`] lookup and accounting.
    pub tenant: Option<String>,
    /// Scheduling priority.
    pub priority: Priority,
    /// Time budget from submission; expired jobs are not run.
    pub deadline: Option<Duration>,
}

impl From<Job> for JobSpec {
    fn from(job: Job) -> JobSpec {
        JobSpec {
            kernel: job.kernel,
            policy: PolicySel::Fixed(job.policy),
            mode: job.mode,
            tenant: None,
            priority: Priority::Normal,
            deadline: None,
        }
    }
}

impl JobSpec {
    /// A spec for `kernel` with the book-default policy, nearest-even
    /// rounding, normal priority and no deadline.
    pub fn of(kernel: Kernel) -> JobSpec {
        JobSpec {
            kernel,
            policy: PolicySel::Default,
            mode: RoundMode::NearestEven,
            tenant: None,
            priority: Priority::Normal,
            deadline: None,
        }
    }

    /// A normal-priority spec with no deadline, policy pinned to the
    /// job's.
    pub fn new(job: Job) -> JobSpec {
        JobSpec::from(job)
    }

    /// Pin the precision policy.
    pub fn with_policy(mut self, policy: PrecisionPolicy) -> JobSpec {
        self.policy = PolicySel::Fixed(policy);
        self
    }

    /// Pin a *uniform* policy — every format is `fmt`.
    pub fn with_format(self, fmt: FpFormat) -> JobSpec {
        self.with_policy(PrecisionPolicy::uniform(fmt))
    }

    /// Let the auto-tuner pick the cheapest policy meeting `budget`,
    /// with operands stored in `storage`.
    pub fn auto_policy(mut self, storage: FpFormat, budget: ErrorBudget) -> JobSpec {
        self.policy = PolicySel::Auto { storage, budget };
        self
    }

    /// Set the rounding mode.
    pub fn with_mode(mut self, mode: RoundMode) -> JobSpec {
        self.mode = mode;
        self
    }

    /// Name the submitting tenant (selects its [`PolicyBook`] entry
    /// under [`PolicySel::Default`]).
    pub fn for_tenant(mut self, tenant: impl Into<String>) -> JobSpec {
        self.tenant = Some(tenant.into());
        self
    }

    /// Set the priority.
    pub fn with_priority(mut self, priority: Priority) -> JobSpec {
        self.priority = priority;
        self
    }

    /// Set the deadline (measured from submission).
    pub fn with_deadline(mut self, deadline: Duration) -> JobSpec {
        self.deadline = Some(deadline);
        self
    }

    /// The job this spec names, if its policy is pinned — traces and
    /// tests use this to inspect a spec without a pool.
    pub fn fixed_job(&self) -> Option<Job> {
        match self.policy {
            PolicySel::Fixed(policy) => Some(Job {
                kernel: self.kernel.clone(),
                policy,
                mode: self.mode,
            }),
            _ => None,
        }
    }

    /// Resolve the policy selector into a concrete [`Job`]: pinned
    /// policies pass through, defaults consult `book`, auto policies
    /// run the [`tuner`] against `tech` through `cache`.
    pub fn resolve(
        self,
        book: &PolicyBook,
        tech: &Tech,
        cache: &SweepCache,
    ) -> Result<Job, SubmitError> {
        let policy = match &self.policy {
            PolicySel::Fixed(p) => *p,
            PolicySel::Default => book.policy_for(self.tenant.as_deref()),
            PolicySel::Auto { storage, budget } => {
                tuner::autotune(*storage, budget, tech, cache)
                    .map_err(|detail| SubmitError::Budget { detail })?
                    .policy
            }
        };
        Ok(Job {
            kernel: self.kernel,
            policy,
            mode: self.mode,
        })
    }
}

/// How one job ended.
#[derive(Clone, Debug, PartialEq)]
pub enum JobOutcome {
    /// Ran; here is the bit-exact result.
    Completed(JobResult),
    /// Deadline expired before a worker picked it up.
    TimedOut,
    /// Displaced from a full queue by a higher-priority submission.
    Shed,
    /// Cancelled via [`JobHandle::cancel`] before execution.
    Cancelled,
    /// The kernel panicked; the worker survived.
    Failed(String),
}

struct Shared {
    outcome: Mutex<Slot>,
    cv: Condvar,
    cancelled: AtomicBool,
}

/// A job's outcome once it ends, and whether a [`JobHandle::wait`] is
/// parked on the condvar (so [`finish`] notifies only when one is).
#[derive(Default)]
struct Slot {
    outcome: Option<JobOutcome>,
    waiting: bool,
}

/// The submitter's side of one accepted job.
pub struct JobHandle {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("done", &self.is_done())
            .finish()
    }
}

impl JobHandle {
    /// Block until the job ends, consuming the handle.
    pub fn wait(self) -> JobOutcome {
        let mut slot = self.shared.outcome.lock().expect("job outcome poisoned");
        loop {
            if let Some(outcome) = slot.outcome.take() {
                return outcome;
            }
            slot.waiting = true;
            slot = self.shared.cv.wait(slot).expect("job outcome poisoned");
        }
    }

    /// Has the job ended (in any way)?
    pub fn is_done(&self) -> bool {
        self.shared
            .outcome
            .lock()
            .expect("job outcome poisoned")
            .outcome
            .is_some()
    }

    /// Ask the pool not to run this job. Takes effect if a worker has
    /// not picked it up yet; the outcome becomes
    /// [`JobOutcome::Cancelled`].
    pub fn cancel(&self) {
        self.shared.cancelled.store(true, Ordering::Relaxed);
    }
}

/// Why [`ServePool::submit`] refused a spec. Acceptance is a plain
/// `Ok(JobHandle)`; every refusal is immediate — a full queue answers
/// with backpressure instead of blocking, and nothing is ever dropped
/// silently.
#[derive(Clone, Debug, PartialEq)]
pub enum SubmitError {
    /// The payload failed kernel precondition checks (or the resolved
    /// policy is outside the kernel's capabilities); never queued.
    Invalid(String),
    /// The shard's queue is full and nothing lower-priority could be
    /// shed. Retry later or scale out.
    Rejected {
        /// Depth of the refusing queue at rejection time.
        queue_depth: usize,
    },
    /// The pool is shutting down and accepts no new work.
    Closed,
    /// No candidate policy meets the requested
    /// [`ErrorBudget`] ([`PolicySel::Auto`] only).
    Budget {
        /// Human-readable diagnosis, naming the best achievable error.
        detail: String,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Invalid(reason) => write!(f, "invalid job: {reason}"),
            SubmitError::Rejected { queue_depth } => {
                write!(f, "queue full at depth {queue_depth}, submission rejected")
            }
            SubmitError::Closed => write!(f, "pool is closed to new work"),
            SubmitError::Budget { detail } => write!(f, "error budget unsatisfiable: {detail}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Pool construction parameters.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker (= shard) count, ≥ 1.
    pub workers: usize,
    /// Bounded capacity of each shard's queue.
    pub queue_capacity: usize,
    /// Max coalescible jobs folded into one `run_coalesced` call.
    pub coalesce_window: usize,
    /// Per-shard sweep-cache bound, ≥ 1.
    pub cache_capacity: usize,
    /// Per-tenant precision policies for [`PolicySel::Default`]
    /// submissions.
    pub policies: PolicyBook,
    /// Device model used by [`Kernel::Sweep`] and the auto-tuner.
    pub tech: Tech,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 4,
            queue_capacity: 256,
            coalesce_window: 16,
            cache_capacity: 128,
            policies: PolicyBook::default(),
            tech: Tech::virtex2pro(),
        }
    }
}

impl ServeConfig {
    /// The default config at a given worker count.
    pub fn with_workers(workers: usize) -> ServeConfig {
        ServeConfig {
            workers,
            ..ServeConfig::default()
        }
    }
}

struct Entry {
    job: Job,
    priority: Priority,
    submitted: Instant,
    deadline: Option<Instant>,
    work_items: u64,
    shared: Arc<Shared>,
}

struct ShardState {
    queue: VecDeque<Entry>,
    open: bool,
    paused: bool,
    /// The shard's worker is parked on `cv` (set under this lock).
    sleeping: bool,
}

struct Shard {
    state: Mutex<ShardState>,
    cv: Condvar,
    /// The shard's worker found its own queue empty and is scanning the
    /// other shards or dozing: a submission elsewhere pokes it to steal.
    idle: AtomicBool,
}

/// The serving engine: submit [`JobSpec`]s, await [`JobHandle`]s,
/// observe [`MetricsSnapshot`]s. Dropping the pool drains the queues
/// and joins the workers.
pub struct ServePool {
    shards: Vec<Arc<Shard>>,
    caches: Vec<SweepCache>,
    metrics: Arc<Metrics>,
    workers: Vec<JoinHandle<()>>,
    queue_capacity: usize,
    policies: PolicyBook,
    tech: Tech,
    /// Live coalescing window, shared with every worker. Adaptive
    /// tuners (see `fpfpga-net`) adjust it while the pool runs.
    coalesce: Arc<AtomicUsize>,
    /// Submission-side cache for the auto-tuner's core sweeps (the
    /// shard caches belong to the workers).
    tuner_cache: SweepCache,
}

impl ServePool {
    /// Spawn the pool.
    pub fn new(config: ServeConfig) -> ServePool {
        assert!(config.workers >= 1, "pool needs at least one worker");
        assert!(config.queue_capacity >= 1, "queue capacity must be ≥ 1");
        assert!(config.coalesce_window >= 1, "coalesce window must be ≥ 1");
        let metrics = Arc::new(Metrics::new());
        let mut shards = Vec::with_capacity(config.workers);
        let mut caches = Vec::with_capacity(config.workers);
        let mut workers = Vec::with_capacity(config.workers);
        for _ in 0..config.workers {
            let shard = Arc::new(Shard {
                state: Mutex::new(ShardState {
                    queue: VecDeque::new(),
                    open: true,
                    paused: false,
                    sleeping: false,
                }),
                cv: Condvar::new(),
                idle: AtomicBool::new(false),
            });
            shards.push(shard);
            caches.push(SweepCache::with_capacity(config.cache_capacity));
        }
        let coalesce = Arc::new(AtomicUsize::new(config.coalesce_window));
        for i in 0..config.workers {
            let ctx = WorkerCtx {
                shards: shards.clone(),
                caches: caches.clone(),
                me: i,
                metrics: metrics.clone(),
                tech: config.tech.clone(),
                coalesce: coalesce.clone(),
            };
            workers.push(
                std::thread::Builder::new()
                    .name(format!("fpserve-{i}"))
                    .spawn(move || ctx.run())
                    .expect("spawn worker"),
            );
        }
        ServePool {
            shards,
            caches,
            metrics,
            workers,
            queue_capacity: config.queue_capacity,
            policies: config.policies,
            tech: config.tech,
            coalesce,
            tuner_cache: SweepCache::new(),
        }
    }

    /// Worker (= shard) count.
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// The live coalescing window: the max number of compatible jobs a
    /// worker folds into one `run_coalesced` call.
    pub fn coalesce_window(&self) -> usize {
        self.coalesce.load(Ordering::Relaxed)
    }

    /// Adjust the coalescing window at run time (clamped to ≥ 1).
    /// Workers read the window when they pick up a group, so the new
    /// value applies from the next group on; results are unaffected
    /// (coalescing is bit-invisible by construction — property-tested).
    pub fn set_coalesce_window(&self, window: usize) {
        self.coalesce.store(window.max(1), Ordering::Relaxed);
    }

    /// Submit a spec. Resolves the precision policy (book lookup or
    /// auto-tuning), validates the resulting job, and queues it on its
    /// class shard. Returns immediately: `Ok` with a handle, or a
    /// [`SubmitError`] explaining the refusal (full queue, invalid
    /// payload, unsatisfiable budget, closed pool).
    pub fn submit(&self, spec: impl Into<JobSpec>) -> Result<JobHandle, SubmitError> {
        let spec = spec.into();
        let priority = spec.priority;
        let deadline = spec.deadline;
        let auto = matches!(spec.policy, PolicySel::Auto { .. });
        let job = match spec.resolve(&self.policies, &self.tech, &self.tuner_cache) {
            Ok(job) => job,
            Err(e) => {
                self.metrics.on_failed();
                return Err(e);
            }
        };
        if auto {
            self.metrics.on_auto_tuned();
        }
        if let Err(reason) = job.validate() {
            self.metrics.on_failed();
            return Err(SubmitError::Invalid(reason));
        }
        if !job.policy.is_uniform() {
            self.metrics.on_mixed();
        }
        let shard = &self.shards[(job.class_hash() % self.shards.len() as u64) as usize];
        let now = Instant::now();
        let shared = Arc::new(Shared {
            outcome: Mutex::new(Slot::default()),
            cv: Condvar::new(),
            cancelled: AtomicBool::new(false),
        });
        let entry = Entry {
            work_items: job.work_items(),
            job,
            priority,
            submitted: now,
            deadline: deadline.map(|d| now + d),
            shared: shared.clone(),
        };

        let mut st = shard.state.lock().expect("shard poisoned");
        if !st.open {
            self.metrics.on_rejected();
            return Err(SubmitError::Closed);
        }
        if st.queue.len() >= self.queue_capacity {
            // Graceful degradation: shed the lowest-priority queued job
            // (latest-submitted among equals) for a strictly
            // higher-priority submission; otherwise refuse.
            let victim = st
                .queue
                .iter()
                .enumerate()
                .min_by_key(|(i, e)| (e.priority, std::cmp::Reverse(*i)))
                .map(|(i, e)| (i, e.priority));
            match victim {
                Some((i, p)) if p < entry.priority => {
                    let shed = st.queue.remove(i).expect("victim index in range");
                    finish(&shed, JobOutcome::Shed);
                    self.metrics.on_shed();
                    self.metrics.queue_shrank(1);
                }
                _ => {
                    self.metrics.on_rejected();
                    return Err(SubmitError::Rejected {
                        queue_depth: st.queue.len(),
                    });
                }
            }
        }
        st.queue.push_back(entry);
        self.metrics.on_submitted();
        self.metrics.queue_grew(1);
        let home_asleep = st.sleeping;
        drop(st);
        // Wake the home worker if it is parked (a busy one finds the job
        // under the lock), and poke each idle worker so it re-runs its
        // steal scan now instead of on its next doze tick (each worker
        // waits on its own shard's condvar only). An idle flag set before
        // a scan that missed this job is visible here: the scan locked
        // this shard before the push did.
        if home_asleep {
            shard.cv.notify_one();
        }
        for s in &self.shards {
            if !Arc::ptr_eq(s, shard) && s.idle.load(Ordering::Relaxed) {
                s.cv.notify_one();
            }
        }
        Ok(JobHandle { shared })
    }

    /// Stop workers from picking up new jobs (queues keep accepting up
    /// to capacity). Used by drain-style maintenance and the overload
    /// tests; pair with [`ServePool::resume`].
    pub fn pause(&self) {
        for shard in &self.shards {
            shard.state.lock().expect("shard poisoned").paused = true;
            shard.cv.notify_all();
        }
    }

    /// Resume a paused pool.
    pub fn resume(&self) {
        for shard in &self.shards {
            shard.state.lock().expect("shard poisoned").paused = false;
            shard.cv.notify_all();
        }
    }

    /// Metrics snapshot, including sweep-cache stats aggregated over
    /// every worker shard plus the submission-side tuner cache.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut s = self.metrics.snapshot();
        for c in self.caches.iter().chain([&self.tuner_cache]) {
            s.cache_hits += c.hits();
            s.cache_misses += c.misses();
            s.cache_evictions += c.evictions();
        }
        s
    }

    /// Drain every queue and join the workers. (Queued jobs still run;
    /// new submissions are rejected.)
    pub fn join(mut self) -> MetricsSnapshot {
        self.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.metrics()
    }

    /// Begin a drain without consuming the pool: new submissions are
    /// refused with [`SubmitError::Closed`] from this call on, while
    /// already-queued jobs still run to completion (a paused pool is
    /// implicitly resumed so the drain makes progress). Every
    /// outstanding [`JobHandle`] resolves — nothing hangs, nothing is
    /// silently dropped. Call [`ServePool::join`] (or drop the pool) to
    /// wait for the drain to finish.
    pub fn shutdown(&self) {
        self.close();
    }

    fn close(&self) {
        for shard in &self.shards {
            let mut st = shard.state.lock().expect("shard poisoned");
            st.open = false;
            st.paused = false;
            shard.cv.notify_all();
        }
    }
}

impl Drop for ServePool {
    fn drop(&mut self) {
        self.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Publish a job's outcome, waking its handle's `wait` if one is parked
/// — after the lock is released, so the waiter does not block on it
/// again. A handle has at most one waiter (`wait` consumes it).
fn finish(entry: &Entry, outcome: JobOutcome) {
    let mut slot = entry.shared.outcome.lock().expect("job outcome poisoned");
    slot.outcome = Some(outcome);
    let parked = slot.waiting;
    drop(slot);
    if parked {
        entry.shared.cv.notify_one();
    }
}

/// Pop the head of a shard queue plus every coalescible same-class
/// entry behind it (they need not be adjacent), up to `window`.
fn take_group(st: &mut ShardState, window: usize) -> Vec<Entry> {
    let head = st.queue.pop_front().expect("non-empty queue");
    let mut group = vec![head];
    if let Some(key) = group[0].job.coalesce_key() {
        let mut i = 0;
        while i < st.queue.len() && group.len() < window {
            if st.queue[i].job.coalesce_key() == Some(key) {
                group.push(st.queue.remove(i).expect("index in range"));
            } else {
                i += 1;
            }
        }
    }
    group
}

struct WorkerCtx {
    shards: Vec<Arc<Shard>>,
    caches: Vec<SweepCache>,
    me: usize,
    metrics: Arc<Metrics>,
    tech: Tech,
    coalesce: Arc<AtomicUsize>,
}

impl WorkerCtx {
    fn run(self) {
        while let Some((home, group)) = self.next_group() {
            self.metrics.queue_shrank(group.len());
            self.execute(home, group);
        }
    }

    /// Block until there is work: prefer the worker's own shard, then
    /// steal a group from any other shard (class-hash sharding balances
    /// cache affinity, not load — a run of heavy jobs can pile onto one
    /// shard, and stealing keeps the other workers busy; jobs are pure,
    /// so where they execute is invisible in the results). Returns the
    /// *home* shard index with the group, so stolen sweeps still run
    /// against their home cache. `None` means the pool is shutting down
    /// and every queue this worker can see is empty.
    fn next_group(&self) -> Option<(usize, Vec<Entry>)> {
        let own = &self.shards[self.me];
        let mut st = own.state.lock().expect("shard poisoned");
        loop {
            // Re-read the live window per group so run-time adjustments
            // (adaptive coalescing) apply from the very next batch.
            let window = self.coalesce.load(Ordering::Relaxed).max(1);
            if st.paused {
                st.sleeping = true;
                st = own.cv.wait(st).expect("shard poisoned");
                st.sleeping = false;
                continue;
            }
            if !st.queue.is_empty() {
                own.idle.store(false, Ordering::Relaxed);
                return Some((self.me, take_group(&mut st, window)));
            }
            let open = st.open;
            drop(st);
            own.idle.store(true, Ordering::Relaxed);
            for j in (0..self.shards.len()).filter(|&j| j != self.me) {
                let mut other = self.shards[j].state.lock().expect("shard poisoned");
                if !other.paused && !other.queue.is_empty() {
                    own.idle.store(false, Ordering::Relaxed);
                    return Some((j, take_group(&mut other, window)));
                }
            }
            if !open {
                return None;
            }
            st = own.state.lock().expect("shard poisoned");
            if st.paused || !st.queue.is_empty() || !st.open {
                continue;
            }
            // Nothing anywhere: doze briefly. The timeout bounds how
            // long newly submitted *remote* work waits for a thief
            // (own-shard work wakes us through the condvar).
            st.sleeping = true;
            let (guard, _) = own
                .cv
                .wait_timeout(st, Duration::from_millis(1))
                .expect("shard poisoned");
            st = guard;
            st.sleeping = false;
        }
    }

    fn execute(&self, home: usize, group: Vec<Entry>) {
        // Deadline/cancellation triage at pickup time.
        let now = Instant::now();
        let mut live = Vec::with_capacity(group.len());
        for e in group {
            if e.shared.cancelled.load(Ordering::Relaxed) {
                self.metrics.on_cancelled();
                finish(&e, JobOutcome::Cancelled);
            } else if e.deadline.is_some_and(|d| now >= d) {
                self.metrics.on_timed_out();
                finish(&e, JobOutcome::TimedOut);
            } else {
                live.push(e);
            }
        }
        if live.is_empty() {
            return;
        }

        if live.len() > 1 {
            // A coalesced batch: one run_coalesced call.
            let key = live[0].job.coalesce_key().expect("coalesced group");
            let batches: Vec<&[(u64, u64)]> = live
                .iter()
                .map(|e| match &e.job.kernel {
                    Kernel::Eltwise { pairs, .. } => pairs.as_slice(),
                    _ => unreachable!("only eltwise jobs coalesce"),
                })
                .collect();
            self.metrics.on_batch(live.len() as u64);
            match catch_unwind(AssertUnwindSafe(|| run_coalesced(key, &batches))) {
                Ok(results) => {
                    let done = Instant::now();
                    for (e, r) in live.iter().zip(results) {
                        self.metrics.on_completed(done - e.submitted, e.work_items);
                        finish(e, JobOutcome::Completed(r));
                    }
                }
                Err(p) => {
                    for e in &live {
                        self.metrics.on_failed();
                        finish(e, JobOutcome::Failed(panic_text(&p)));
                    }
                }
            }
        } else {
            let e = live.pop().expect("one live entry");
            if e.job.coalesce_key().is_some() {
                self.metrics.on_batch(1);
            }
            match catch_unwind(AssertUnwindSafe(|| {
                e.job.run(&self.tech, &self.caches[home])
            })) {
                Ok(result) => {
                    self.metrics
                        .on_completed(e.submitted.elapsed(), e.work_items);
                    finish(&e, JobOutcome::Completed(result));
                }
                Err(p) => {
                    self.metrics.on_failed();
                    finish(&e, JobOutcome::Failed(panic_text(&p)));
                }
            }
        }
    }
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panic".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::EltOp;
    use fpfpga_softfp::{FpFormat, RoundMode, SoftFloat};

    const FMT: FpFormat = FpFormat::SINGLE;
    const RM: RoundMode = RoundMode::NearestEven;

    fn enc(v: f64) -> u64 {
        SoftFloat::from_f64(FMT, v).bits()
    }

    fn add_kernel(vals: &[(f64, f64)]) -> Kernel {
        Kernel::Eltwise {
            op: EltOp::Add,
            stages: 6,
            pairs: vals.iter().map(|&(a, b)| (enc(a), enc(b))).collect(),
        }
    }

    fn add_job(vals: &[(f64, f64)]) -> Job {
        Job::uniform(add_kernel(vals), FMT, RM)
    }

    #[test]
    fn submit_and_wait_round_trip() {
        let pool = ServePool::new(ServeConfig::with_workers(2));
        let h = pool
            .submit(add_job(&[(1.0, 2.0), (3.0, 4.0)]))
            .expect("accepted");
        match h.wait() {
            JobOutcome::Completed(JobResult::Eltwise(rs)) => {
                assert_eq!(SoftFloat::from_bits(FMT, rs[0].0).to_f64(), 3.0);
                assert_eq!(SoftFloat::from_bits(FMT, rs[1].0).to_f64(), 7.0);
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
        let m = pool.join();
        assert_eq!((m.submitted, m.completed), (1, 1));
        assert_eq!(m.queue_depth, 0);
    }

    #[test]
    fn finish_wakes_only_a_parked_wait() {
        let entry = || Entry {
            job: add_job(&[(1.0, 2.0)]),
            priority: Priority::Normal,
            submitted: Instant::now(),
            deadline: None,
            work_items: 1,
            shared: Arc::new(Shared {
                outcome: Mutex::new(Slot::default()),
                cv: Condvar::new(),
                cancelled: AtomicBool::new(false),
            }),
        };
        // Finished before anyone waits: no waiter is recorded, and `wait`
        // reads the outcome without being notified.
        let early = entry();
        finish(&early, JobOutcome::Cancelled);
        assert!(!early.shared.outcome.lock().unwrap().waiting);
        let handle = JobHandle {
            shared: early.shared.clone(),
        };
        assert!(matches!(handle.wait(), JobOutcome::Cancelled));

        // Parked first: `finish` must see `waiting` and notify, or the
        // waiter never returns (bounded here so a lost wake-up fails).
        let late = entry();
        let handle = JobHandle {
            shared: late.shared.clone(),
        };
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || tx.send(handle.wait()).unwrap());
        let t0 = Instant::now();
        while !late.shared.outcome.lock().unwrap().waiting {
            assert!(t0.elapsed() < Duration::from_secs(10), "wait never parked");
            std::thread::yield_now();
        }
        finish(&late, JobOutcome::Cancelled);
        let woken = rx.recv_timeout(Duration::from_secs(10));
        assert!(
            matches!(woken, Ok(JobOutcome::Cancelled)),
            "parked wait not woken"
        );
        waiter.join().unwrap();
    }

    #[test]
    fn full_queue_rejects_instead_of_blocking() {
        let pool = ServePool::new(ServeConfig {
            workers: 1,
            queue_capacity: 2,
            ..ServeConfig::default()
        });
        pool.pause();
        let _h1 = pool.submit(add_job(&[(1.0, 1.0)])).expect("accepted");
        let _h2 = pool.submit(add_job(&[(2.0, 2.0)])).expect("accepted");
        match pool.submit(add_job(&[(3.0, 3.0)])) {
            Err(SubmitError::Rejected { queue_depth }) => assert_eq!(queue_depth, 2),
            other => panic!("third submission must be rejected, got {other:?}"),
        }
        assert_eq!(pool.metrics().rejected, 1);
        pool.resume();
        let m = pool.join();
        assert_eq!(m.completed, 2);
        assert_eq!(m.rejected, 1);
    }

    #[test]
    fn shedding_respects_priority_order() {
        let pool = ServePool::new(ServeConfig {
            workers: 1,
            queue_capacity: 2,
            ..ServeConfig::default()
        });
        pool.pause();
        let low = pool
            .submit(JobSpec::new(add_job(&[(1.0, 1.0)])).with_priority(Priority::Low))
            .expect("accepted");
        let normal = pool
            .submit(JobSpec::new(add_job(&[(2.0, 2.0)])).with_priority(Priority::Normal))
            .expect("accepted");
        // High displaces the Low job, not the Normal one.
        let high = pool
            .submit(JobSpec::new(add_job(&[(3.0, 3.0)])).with_priority(Priority::High))
            .expect("accepted");
        assert_eq!(low.wait(), JobOutcome::Shed);
        // Nothing strictly lower than Normal is queued now, so an
        // equal-priority submission cannot shed: rejected.
        match pool.submit(JobSpec::new(add_job(&[(4.0, 4.0)])).with_priority(Priority::Normal)) {
            Err(SubmitError::Rejected { .. }) => {}
            other => panic!("equal priority must not shed, got {other:?}"),
        }
        pool.resume();
        assert!(matches!(normal.wait(), JobOutcome::Completed(_)));
        assert!(matches!(high.wait(), JobOutcome::Completed(_)));
        let m = pool.join();
        assert_eq!(m.shed, 1);
        assert_eq!(m.rejected, 1);
        assert_eq!(m.completed, 2);
    }

    #[test]
    fn expired_deadline_is_reported_not_run() {
        let pool = ServePool::new(ServeConfig::with_workers(1));
        pool.pause();
        let h = pool
            .submit(JobSpec::new(add_job(&[(1.0, 1.0)])).with_deadline(Duration::ZERO))
            .expect("accepted");
        // The deadline (submission instant) is already past when the
        // worker triages the job.
        pool.resume();
        assert_eq!(h.wait(), JobOutcome::TimedOut);
        let m = pool.join();
        assert_eq!(m.timed_out, 1);
        assert_eq!(m.completed, 0);
    }

    #[test]
    fn cancellation_before_pickup() {
        let pool = ServePool::new(ServeConfig::with_workers(1));
        pool.pause();
        let h = pool.submit(add_job(&[(1.0, 1.0)])).expect("accepted");
        h.cancel();
        pool.resume();
        assert_eq!(h.wait(), JobOutcome::Cancelled);
        assert_eq!(pool.join().cancelled, 1);
    }

    #[test]
    fn compatible_streams_coalesce_into_one_batch() {
        let pool = ServePool::new(ServeConfig {
            workers: 1,
            queue_capacity: 64,
            coalesce_window: 8,
            ..ServeConfig::default()
        });
        pool.pause();
        let handles: Vec<JobHandle> = (0..6)
            .map(|i| {
                pool.submit(add_job(&[(i as f64, 1.0), (i as f64, 2.0)]))
                    .expect("accepted")
            })
            .collect();
        pool.resume();
        for (i, h) in handles.into_iter().enumerate() {
            match h.wait() {
                JobOutcome::Completed(JobResult::Eltwise(rs)) => {
                    assert_eq!(SoftFloat::from_bits(FMT, rs[0].0).to_f64(), i as f64 + 1.0);
                    assert_eq!(SoftFloat::from_bits(FMT, rs[1].0).to_f64(), i as f64 + 2.0);
                }
                other => panic!("job {i}: {other:?}"),
            }
        }
        let m = pool.join();
        assert_eq!(m.completed, 6);
        assert_eq!(m.batched_jobs, 6);
        assert!(
            m.batch_occupancy() > 1.0,
            "paused-queue streams must coalesce, occupancy = {}",
            m.batch_occupancy()
        );
    }

    #[test]
    fn invalid_jobs_never_reach_a_worker() {
        let pool = ServePool::new(ServeConfig::with_workers(1));
        match pool.submit(Job::uniform(
            Kernel::Dot {
                mult_stages: 5,
                add_stages: 5,
                x: vec![1],
                y: vec![],
            },
            FMT,
            RM,
        )) {
            Err(SubmitError::Invalid(reason)) => assert!(reason.contains("lengths differ")),
            other => panic!("mismatched dot must be invalid, got {other:?}"),
        }
        let m = pool.join();
        assert_eq!(m.failed, 1);
        assert_eq!(m.submitted, 0);
    }

    #[test]
    fn closed_pool_refuses_new_work() {
        let pool = ServePool::new(ServeConfig::with_workers(1));
        pool.close();
        match pool.submit(add_job(&[(1.0, 1.0)])) {
            Err(SubmitError::Closed) => {}
            other => panic!("closed pool must refuse, got {other:?}"),
        }
    }

    #[test]
    fn tenant_policies_resolve_from_the_book() {
        let book = PolicyBook::default()
            .with_tenant("hft", PrecisionPolicy::uniform(FpFormat::FP48))
            .with_tenant(
                "science",
                PrecisionPolicy::mixed(FpFormat::SINGLE, FpFormat::DOUBLE),
            );
        let pool = ServePool::new(ServeConfig {
            workers: 1,
            policies: book,
            ..ServeConfig::default()
        });
        // The FP48 tenant's eltwise job computes (and stores) in f48.
        let f48 = FpFormat::FP48;
        let pairs = vec![(
            SoftFloat::from_f64(f48, 1.5).bits(),
            SoftFloat::from_f64(f48, 2.25).bits(),
        )];
        let h = pool
            .submit(
                JobSpec::of(Kernel::Eltwise {
                    op: EltOp::Add,
                    stages: 6,
                    pairs,
                })
                .for_tenant("hft"),
            )
            .expect("accepted");
        match h.wait() {
            JobOutcome::Completed(JobResult::Eltwise(rs)) => {
                assert_eq!(SoftFloat::from_bits(f48, rs[0].0).to_f64(), 3.75);
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
        // The mixed tenant's dot product runs the mixed kernel and is
        // counted in the mixed-jobs metric; unknown tenants get the
        // default (uniform single — not mixed).
        let x: Vec<u64> = (0..9).map(|i| enc(i as f64 * 0.5)).collect();
        let dot = |x: Vec<u64>| Kernel::Dot {
            mult_stages: 5,
            add_stages: 4,
            y: x.clone(),
            x,
        };
        let h = pool
            .submit(JobSpec::of(dot(x.clone())).for_tenant("science"))
            .expect("accepted");
        assert!(matches!(
            h.wait(),
            JobOutcome::Completed(JobResult::Dot { .. })
        ));
        let h = pool
            .submit(JobSpec::of(dot(x)).for_tenant("unknown"))
            .expect("accepted");
        assert!(matches!(
            h.wait(),
            JobOutcome::Completed(JobResult::Dot { .. })
        ));
        let m = pool.join();
        assert_eq!(m.mixed_jobs, 1, "exactly the science job is mixed");
        assert_eq!(m.completed, 3);
    }

    #[test]
    fn auto_policies_resolve_at_submission() {
        let pool = ServePool::new(ServeConfig::with_workers(1));
        let x: Vec<u64> = (0..17).map(|i| enc(1.0 + i as f64 * 0.25)).collect();
        let h = pool
            .submit(
                JobSpec::of(Kernel::Dot {
                    mult_stages: 5,
                    add_stages: 4,
                    x: x.clone(),
                    y: x,
                })
                .auto_policy(FMT, ErrorBudget::MaxUlp(1e9)),
            )
            .expect("a sky-high budget must be satisfiable");
        assert!(matches!(
            h.wait(),
            JobOutcome::Completed(JobResult::Dot { .. })
        ));
        // An impossible budget is refused up front, never queued.
        let y: Vec<u64> = vec![enc(1.0)];
        match pool.submit(
            JobSpec::of(Kernel::Dot {
                mult_stages: 5,
                add_stages: 4,
                x: y.clone(),
                y,
            })
            .auto_policy(FMT, ErrorBudget::MaxRelative(0.0)),
        ) {
            Err(SubmitError::Budget { detail }) => assert!(detail.contains("no policy")),
            other => panic!("impossible budget must be refused, got {other:?}"),
        }
        let m = pool.join();
        assert_eq!(m.auto_tuned, 1);
        assert_eq!(m.completed, 1);
        assert_eq!(m.failed, 1);
    }
}
