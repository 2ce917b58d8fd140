//! [`Server`]: a sharded, backpressured, dynamic-batching, self-healing
//! front-end over a shared [`EnginePlan`].
//!
//! Production ensemble traffic is dominated by single-example requests,
//! but every kernel underneath is batch-oriented — served one by one,
//! each request would pay the full member fan-out for one row of GEMM
//! work. And one batching worker caps the whole server at a single
//! engine's throughput. The server closes both gaps:
//!
//! ```text
//!                  ┌──────────────────────────────┐
//!  ServeClient ──▶ │   bounded MPMC request queue │──▶ shard 0: EngineSession ─┐
//!  ServeClient ──▶ │  (Overloaded when full)      │──▶ shard 1: EngineSession ─┼─▶ replies
//!      ...         │                              │──▶ shard N: EngineSession ─┘
//!                  └──────────────────────────────┘         │            ▲
//!                                            Arc<EnginePlan> (one weight copy)
//!                                                           │            │ respawn
//!                                                      supervisor ───────┘
//! ```
//!
//! * **Sharding** — [`ServerBuilder::shards`] starts N worker threads,
//!   each owning an [`EngineSession`] over one shared [`EnginePlan`]: no
//!   per-shard weight clones, N concurrent micro-batches.
//! * **Backpressure** — the request queue is bounded
//!   ([`ServerBuilder::queue_capacity`]). A submit against a full queue
//!   fails *immediately* with [`ServeError::Overloaded`] (carrying the
//!   observed queue depth) instead of growing the queue without bound;
//!   the server keeps serving and later submits succeed again.
//! * **Dynamic micro-batching** — each shard coalesces queued requests
//!   into one engine call, up to [`BatchingConfig::max_batch`] examples
//!   or until [`BatchingConfig::max_wait`] has passed since the batch's
//!   *first request was enqueued* (an idle server adds at most `max_wait`
//!   latency, a busy one none — and a request that already sat in the
//!   queue for the whole window is flushed immediately rather than
//!   charged a second window). A batch also never stays open past the
//!   earliest deadline among its admitted requests.
//! * **Per-request deadlines** — [`ServeClient::submit_with_deadline`]
//!   (or a [`ServerBuilder::default_deadline`]) attaches a latency
//!   budget. Expired requests are shed *in the queue* with a typed
//!   [`ServeError::DeadlineExceeded`] before any eval FLOPs are spent on
//!   them, and [`PendingPrediction::wait`] returns the same error
//!   client-side the moment the budget runs out. Sheds are tallied in
//!   [`ServerStats::deadline_expired`].
//! * **Supervision & respawn** — a supervisor thread watches for worker
//!   death. A panicked shard is respawned as a fresh [`EngineSession`]
//!   off the shared plan (cheap by construction — no weights to copy),
//!   under a bounded [`ServerBuilder::restart_budget`] with exponential
//!   [`ServerBuilder::restart_backoff`]. Restarts are tallied in
//!   [`ServerReport::restarts`]; per-shard counters live outside the
//!   worker threads, so they survive the death and keep accumulating
//!   across shard incarnations. If every worker is dead and the budget
//!   is spent, pending requests fail fast with
//!   [`ServeError::WorkerGone`] and the queue closes — no client ever
//!   hangs on a server that cannot answer.
//! * **Brownout degradation** — under pressure the ensemble itself is
//!   the degradation lever: instead of rejecting, shards switch to
//!   gate-only/cascade execution ([`BrownoutConfig::policy`], reusing
//!   [`crate::engine::ExecPolicy::Cascade`]) and mark each answer
//!   [`Prediction::degraded`]. Entry when the queue depth crosses
//!   [`BrownoutConfig::high_water`] *or* the restart budget is exhausted
//!   (sticky); recovery with hysteresis once depth falls to
//!   [`BrownoutConfig::low_water`]. Depth-triggered brownout is opt-in
//!   ([`ServerBuilder::brownout`]); budget-exhaustion brownout is always
//!   on — degraded answers beat a dead server.
//! * **Uncertainty surface** — every [`Prediction`] carries the gate
//!   [`Prediction::uncertainty`] and whether the example
//!   [`Prediction::escalated`] to the full ensemble.
//! * **Graceful shutdown** — [`Server::shutdown`] closes the queue to new
//!   submissions, lets every shard drain the requests already admitted
//!   (each gets its answer), then joins supervisor and workers and
//!   returns per-shard plus aggregate [`ServerStats`].
//! * **Panic containment** — every queue lock recovers from mutex
//!   poisoning, so one worker dying mid-request cannot cascade panics
//!   into the other shards or any client: an orphaned request's
//!   [`PendingPrediction::wait`] returns [`ServeError::WorkerGone`]
//!   instead of blocking forever, and [`Server::shutdown`] counts the
//!   death in [`ServerReport::worker_panics`] rather than re-panicking.
//!
//! Failure behavior is exercised through the named failpoints in
//! [`crate::faults`] ([`crate::faults::sites::QUEUE_POP`],
//! [`crate::faults::sites::WORKER_EVAL`],
//! [`crate::faults::sites::SHUTDOWN_DRAIN`]) — see the chaos suite.
//!
//! Micro-batch composition and shard count never affect results: each
//! example's forward pass is independent of its batch neighbors (the
//! engine's determinism contract), so a non-degraded request answered
//! alone on shard 3 is bitwise identical to the same request answered
//! inside a full batch on shard 0 — pinned by the `serving_stack` and
//! `chaos_serving` integration suites.
//!
//! ## Example
//!
//! ```
//! use mn_ensemble::engine::EnginePlan;
//! use mn_ensemble::serve::Server;
//! use mn_ensemble::EnsembleMember;
//! use mn_nn::arch::{Architecture, InputSpec};
//! use mn_nn::Network;
//! use mn_tensor::Tensor;
//!
//! let arch = Architecture::mlp("m", InputSpec::new(1, 2, 2), 3, vec![4]);
//! let members = vec![EnsembleMember::new("m", Network::seeded(&arch, 0))];
//! let plan = EnginePlan::new(members, 32).unwrap().into_shared();
//! let server = Server::builder(plan).shards(2).queue_capacity(64).start();
//! let pending = server.submit(&Tensor::zeros([1, 2, 2])).unwrap();
//! let prediction = pending.wait().unwrap();
//! assert_eq!(prediction.probs.len(), 3);
//! assert!(!prediction.degraded);
//! let report = server.shutdown();
//! assert_eq!(report.aggregate.requests, 1);
//! assert_eq!(report.per_shard.len(), 2);
//! assert_eq!(report.restarts, 0);
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mn_nn::arch::InputSpec;
use mn_tensor::{ops, Tensor, Workspace};

use crate::engine::{CascadePolicy, EnginePlan, EngineSession, ExecPolicy};
use crate::faults;

/// The coalescing deadline for a micro-batch whose first request was
/// enqueued at `enqueued`, observed at `now`: the batch closes `max_wait`
/// after the request *entered the queue*, not after the shard popped it —
/// a request that already waited in the queue must not be charged a
/// second full window (clamped to `now` so an overdue batch still
/// collects whatever is already queued without waiting).
fn coalesce_deadline(enqueued: Instant, now: Instant, max_wait: Duration) -> Instant {
    (enqueued + max_wait).max(now)
}

/// Dynamic micro-batcher bounds (per shard).
#[derive(Clone, Copy, Debug)]
pub struct BatchingConfig {
    /// Maximum examples coalesced into one engine call.
    pub max_batch: usize,
    /// Maximum time a batch stays open waiting for more requests.
    pub max_wait: Duration,
}

impl Default for BatchingConfig {
    fn default() -> Self {
        BatchingConfig {
            max_batch: 64,
            max_wait: Duration::from_millis(2),
        }
    }
}

/// When and how the server degrades instead of rejecting (see the
/// module docs and [`ServerBuilder::brownout`]).
#[derive(Clone, Copy, Debug)]
pub struct BrownoutConfig {
    /// Queue depth at (or above) which shards enter brownout. The
    /// default is `usize::MAX`: depth-triggered brownout is opt-in.
    pub high_water: usize,
    /// Queue depth at (or below) which shards recover from a
    /// depth-triggered brownout — the hysteresis band `low_water..
    /// high_water` prevents flapping at the threshold.
    pub low_water: usize,
    /// Execution policy forced while browned out. The default,
    /// `Cascade(max_prob(1.0))`, serves every example from the gate
    /// member alone — the cheapest calibrated answer the ensemble can
    /// give.
    pub policy: ExecPolicy,
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        BrownoutConfig {
            high_water: usize::MAX,
            low_water: 0,
            policy: ExecPolicy::Cascade(CascadePolicy::max_prob(1.0)),
        }
    }
}

/// Why a request could not be served.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ServeError {
    /// The submitted example does not match the ensemble's input
    /// geometry.
    BadExample {
        /// Human-readable detail.
        detail: String,
    },
    /// The bounded request queue is full: the server is admitting work
    /// faster than its shards drain it. Typed so callers can shed load /
    /// retry with backoff instead of growing an unbounded queue.
    Overloaded {
        /// Queue depth observed at rejection time (= the configured
        /// capacity).
        queue_depth: usize,
    },
    /// The server has shut down (or shut down before answering).
    Closed,
    /// The worker shard serving this request died (panicked) after
    /// dequeueing it — or every worker is dead with the restart budget
    /// spent — so no answer will ever arrive. Typed so a waiting client
    /// returns instead of blocking forever on a reply channel whose
    /// sender unwound.
    WorkerGone,
    /// The request's deadline passed before an answer was produced:
    /// either shed server-side while still queued (no eval FLOPs were
    /// spent on it), or observed client-side by
    /// [`PendingPrediction::wait`].
    DeadlineExceeded,
    /// [`PendingPrediction::wait_timeout`] elapsed. Unlike
    /// [`ServeError::DeadlineExceeded`] this says nothing about the
    /// request itself — it is still in flight and a later
    /// [`PendingPrediction::wait`] can still collect the answer.
    Timeout,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::BadExample { detail } => write!(f, "bad example: {detail}"),
            ServeError::Overloaded { queue_depth } => {
                write!(f, "server overloaded: request queue full at {queue_depth}")
            }
            ServeError::Closed => write!(f, "server is shut down"),
            ServeError::WorkerGone => {
                write!(f, "serving worker died before answering this request")
            }
            ServeError::DeadlineExceeded => {
                write!(f, "request deadline passed before an answer was produced")
            }
            ServeError::Timeout => {
                write!(f, "wait timed out; the request is still in flight")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// One answered request.
#[derive(Clone, Debug)]
pub struct Prediction {
    /// Final class probabilities for this example: the ensemble average,
    /// or the gate member's answer when the example exited a cascade
    /// early.
    pub probs: Vec<f32>,
    /// Arg-max label of [`Prediction::probs`].
    pub label: usize,
    /// Gate uncertainty in `[0, 1]` (`1 - confidence` under the scoring
    /// metric; [`crate::engine::Confidence::MaxProb`] over the ensemble
    /// average when no cascade is configured).
    pub uncertainty: f32,
    /// Whether this example ran the full ensemble (`true`) or exited a
    /// cascade early with the gate's answer (`false`). Always `true`
    /// outside cascade policies.
    pub escalated: bool,
    /// Whether this answer was produced under brownout: the shard forced
    /// the degradation policy ([`BrownoutConfig::policy`]) instead of
    /// the server's configured policy. Degraded answers trade ensemble
    /// quality for staying up; non-degraded answers are bitwise
    /// identical to direct engine evaluation.
    pub degraded: bool,
    /// End-to-end latency: submit to answer, including queueing and
    /// batching delay.
    pub latency: Duration,
    /// Size of the micro-batch this request was served in.
    pub batch: usize,
    /// Worker shard that served this request.
    pub shard: usize,
}

/// Counters one shard (or the whole server, aggregated) reports at
/// shutdown. Kept outside the worker threads, so they survive worker
/// panics and keep accumulating across a shard's respawned incarnations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests answered.
    pub requests: u64,
    /// Engine calls made (micro-batches executed).
    pub batches: u64,
    /// Largest micro-batch executed.
    pub max_batch_filled: usize,
    /// Requests that ran the full ensemble. Equals
    /// [`ServerStats::requests`] outside cascade policies; under a
    /// cascade, `requests - escalated` exited early on the gate alone.
    pub escalated: u64,
    /// Requests shed with [`ServeError::DeadlineExceeded`] while still
    /// queued — their deadline passed before any eval FLOPs were spent.
    /// Not counted in [`ServerStats::requests`].
    pub deadline_expired: u64,
    /// Requests answered under brownout ([`Prediction::degraded`]).
    pub degraded: u64,
}

impl ServerStats {
    /// Mean examples per engine call — the batching win over
    /// one-request-per-call serving.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }

    /// Fraction of requests that exited a cascade early (0.0 with no
    /// traffic, and under non-cascade policies).
    pub fn early_exit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            (self.requests - self.escalated) as f64 / self.requests as f64
        }
    }

    fn merge(&mut self, other: &ServerStats) {
        self.requests += other.requests;
        self.batches += other.batches;
        self.max_batch_filled = self.max_batch_filled.max(other.max_batch_filled);
        self.escalated += other.escalated;
        self.deadline_expired += other.deadline_expired;
        self.degraded += other.degraded;
    }
}

/// Per-shard counters as shared atomics (see [`ServerStats`] for field
/// meanings): written by whichever incarnation of the shard is alive,
/// snapshotted by [`Server::shutdown`].
#[derive(Default)]
struct ShardCounters {
    requests: AtomicU64,
    batches: AtomicU64,
    max_batch_filled: AtomicU64,
    escalated: AtomicU64,
    deadline_expired: AtomicU64,
    degraded: AtomicU64,
}

impl ShardCounters {
    fn snapshot(&self) -> ServerStats {
        ServerStats {
            requests: self.requests.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            max_batch_filled: self.max_batch_filled.load(Ordering::Relaxed) as usize,
            escalated: self.escalated.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
        }
    }
}

/// What [`Server::shutdown`] returns: aggregate counters, the per-shard
/// breakdown, and the supervision/admission tallies.
#[derive(Clone, Debug)]
pub struct ServerReport {
    /// Counters summed over all shards — including
    /// [`ServerStats::deadline_expired`] and [`ServerStats::degraded`],
    /// so operators read the fault-handling totals without walking the
    /// per-shard breakdown.
    pub aggregate: ServerStats,
    /// Counters per worker shard, in shard order. Counters live outside
    /// the worker threads: a shard that panicked keeps what it had
    /// counted, and its respawned incarnation adds to the same entry.
    pub per_shard: Vec<ServerStats>,
    /// Submissions rejected with [`ServeError::Overloaded`] over the
    /// server's lifetime.
    pub rejected: u64,
    /// Worker deaths (panics) over the server's lifetime.
    pub worker_panics: u64,
    /// Worker shards respawned by the supervisor after a panic (at most
    /// [`ServerBuilder::restart_budget`]).
    pub restarts: u64,
}

struct Request {
    /// `[1, C, H, W]` example.
    example: Tensor,
    enqueued: Instant,
    /// Answer-by time; past it the request is shed, not served.
    deadline: Option<Instant>,
    reply: mpsc::Sender<Result<Prediction, ServeError>>,
}

impl Request {
    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }
}

/// The bounded MPMC request queue every shard pulls from. Hand-rolled on
/// `Mutex<VecDeque>` + `Condvar` (the workspace has no queue dependency):
/// admission is O(1) under one lock, `close` flips `open` so producers
/// are rejected while consumers drain what was already admitted.
///
/// Every lock acquisition recovers from poisoning: a worker that panics
/// while holding the lock must not cascade its panic into every other
/// shard and client. The state under the lock (a deque plus a flag) is
/// structurally valid at every point a panic can unwind through, so the
/// "poisoned" data is safe to keep serving from.
struct SharedQueue {
    state: Mutex<QueueState>,
    available: Condvar,
    capacity: usize,
    rejected: AtomicU64,
}

struct QueueState {
    queue: VecDeque<Box<Request>>,
    open: bool,
}

impl SharedQueue {
    fn new(capacity: usize) -> Self {
        SharedQueue {
            state: Mutex::new(QueueState {
                queue: VecDeque::with_capacity(capacity.min(1024)),
                open: true,
            }),
            available: Condvar::new(),
            capacity,
            rejected: AtomicU64::new(0),
        }
    }

    /// Locks the queue state, recovering from a poisoned mutex (see the
    /// type-level docs for why that is sound here).
    fn lock_state(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Admission control: typed rejection instead of unbounded growth.
    fn push(&self, request: Box<Request>) -> Result<(), ServeError> {
        let mut state = self.lock_state();
        if !state.open {
            return Err(ServeError::Closed);
        }
        if state.queue.len() >= self.capacity {
            let depth = state.queue.len();
            drop(state);
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded { queue_depth: depth });
        }
        state.queue.push_back(request);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks until a request is available. Returns `None` only when the
    /// queue is closed **and** fully drained — shutdown answers every
    /// admitted request.
    ///
    /// The [`faults::sites::QUEUE_POP`] failpoint fires here *while the
    /// lock is held*: an injected panic poisons the mutex and drops the
    /// popped request unanswered — the worst-case worker death.
    fn pop_blocking(&self) -> Option<Box<Request>> {
        let mut state = self.lock_state();
        loop {
            if let Some(r) = state.queue.pop_front() {
                faults::trigger(faults::sites::QUEUE_POP);
                return Some(r);
            }
            if !state.open {
                return None;
            }
            state = self
                .available
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Non-blocking-ish pop with a deadline, used while a shard's batch
    /// is open: returns `None` on deadline or when the queue is closed
    /// and empty (the shard then flushes its open batch).
    fn pop_until(&self, deadline: Instant) -> Option<Box<Request>> {
        let mut state = self.lock_state();
        loop {
            if let Some(r) = state.queue.pop_front() {
                faults::trigger(faults::sites::QUEUE_POP);
                return Some(r);
            }
            if !state.open {
                return None;
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _timeout) = self
                .available
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            state = guard;
        }
    }

    fn close(&self) {
        let mut state = self.lock_state();
        state.open = false;
        drop(state);
        self.available.notify_all();
    }

    /// Terminal failure path: closes the queue and answers everything
    /// still in it with [`ServeError::WorkerGone`]. Used when no worker
    /// remains to drain the queue — clients must fail fast, not hang.
    fn fail_pending(&self) {
        let drained: Vec<Box<Request>> = {
            let mut state = self.lock_state();
            state.open = false;
            state.queue.drain(..).collect()
        };
        self.available.notify_all();
        for r in drained {
            let _ = r.reply.send(Err(ServeError::WorkerGone));
        }
    }

    fn depth(&self) -> usize {
        self.lock_state().queue.len()
    }
}

/// Everything the worker shards, the supervisor, and the client handles
/// share: the plan, the queue, the per-shard counters, the serving
/// configuration, and the control flags.
struct Shared {
    plan: Arc<EnginePlan>,
    queue: SharedQueue,
    stats: Vec<ShardCounters>,
    policy: ExecPolicy,
    batching: BatchingConfig,
    brownout: BrownoutConfig,
    /// Set by [`Server::shutdown`]/drop: the supervisor stops respawning.
    shutting_down: AtomicBool,
    /// Current brownout state (hysteresis lives in
    /// [`brownout_decision`]).
    brownout_active: AtomicBool,
    /// Sticky: the restart budget is spent; brownout until shutdown.
    budget_exhausted: AtomicBool,
    restarts: AtomicU64,
    worker_panics: AtomicU64,
}

/// Brownout hysteresis, evaluated once per micro-batch: enter at
/// `high_water` (or immediately when the restart budget is spent),
/// recover only once depth has fallen to `low_water`.
fn brownout_decision(shared: &Shared) -> bool {
    if shared.budget_exhausted.load(Ordering::Relaxed) {
        shared.brownout_active.store(true, Ordering::Relaxed);
        return true;
    }
    let depth = shared.queue.depth();
    if shared.brownout_active.load(Ordering::Relaxed) {
        if depth <= shared.brownout.low_water {
            shared.brownout_active.store(false, Ordering::Relaxed);
            false
        } else {
            true
        }
    } else if depth >= shared.brownout.high_water {
        shared.brownout_active.store(true, Ordering::Relaxed);
        true
    } else {
        false
    }
}

/// A handle for submitting requests; cheap to clone and send across
/// threads.
#[derive(Clone)]
pub struct ServeClient {
    shared: Arc<Shared>,
    input: InputSpec,
    default_deadline: Option<Duration>,
}

impl ServeClient {
    /// Submits one example — `[C, H, W]` or `[1, C, H, W]` — and returns
    /// a handle to await its prediction. Applies the server's
    /// [`ServerBuilder::default_deadline`], if one is configured.
    ///
    /// Examples are validated at admission: a NaN or infinite value would
    /// flow through softmax into probabilities, argmax, and cascade
    /// confidence as silent garbage, so non-finite data is rejected here
    /// with a typed error instead. The finiteness check is fused into the
    /// one copy each request pays (the example is staged into its queued
    /// `[1, C, H, W]` tensor), not a second traversal.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadExample`] when the shape does not match the
    /// ensemble input or the data contains a non-finite value,
    /// [`ServeError::Overloaded`] when the bounded queue is full,
    /// [`ServeError::Closed`] when the server is gone.
    pub fn submit(&self, example: &Tensor) -> Result<PendingPrediction, ServeError> {
        self.submit_inner(example, self.default_deadline)
    }

    /// [`ServeClient::submit`] with an explicit latency budget,
    /// overriding any server default. Once `deadline` has elapsed the
    /// request is shed in-queue (server-side) and
    /// [`PendingPrediction::wait`] stops blocking (client-side) — both
    /// with [`ServeError::DeadlineExceeded`].
    ///
    /// # Errors
    ///
    /// Same as [`ServeClient::submit`].
    pub fn submit_with_deadline(
        &self,
        example: &Tensor,
        deadline: Duration,
    ) -> Result<PendingPrediction, ServeError> {
        self.submit_inner(example, Some(deadline))
    }

    fn submit_inner(
        &self,
        example: &Tensor,
        deadline: Option<Duration>,
    ) -> Result<PendingPrediction, ServeError> {
        let want = [self.input.channels, self.input.height, self.input.width];
        let dims = example.shape().dims();
        let ok = dims == want || (dims.len() == 4 && dims[0] == 1 && dims[1..] == want);
        if !ok {
            return Err(ServeError::BadExample {
                detail: format!(
                    "expected [{}, {}, {}] (or leading batch dim of 1), got {}",
                    want[0],
                    want[1],
                    want[2],
                    example.shape()
                ),
            });
        }
        let mut bad: Option<(usize, f32)> = None;
        let data: Vec<f32> = example
            .data()
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                if bad.is_none() && !v.is_finite() {
                    bad = Some((i, v));
                }
                v
            })
            .collect();
        if let Some((i, v)) = bad {
            return Err(ServeError::BadExample {
                detail: format!("non-finite value {v} at flat index {i}"),
            });
        }
        let example = Tensor::from_vec(
            [1, self.input.channels, self.input.height, self.input.width],
            data,
        );
        let now = Instant::now();
        let deadline = deadline.map(|d| now + d);
        let (reply, rx) = mpsc::channel();
        let request = Box::new(Request {
            example,
            enqueued: now,
            deadline,
            reply,
        });
        self.shared.queue.push(request)?;
        Ok(PendingPrediction { rx, deadline })
    }
}

/// A submitted request awaiting its answer.
pub struct PendingPrediction {
    rx: mpsc::Receiver<Result<Prediction, ServeError>>,
    deadline: Option<Instant>,
}

impl PendingPrediction {
    /// Blocks until the prediction arrives — or, for a request with a
    /// deadline, until the deadline passes (whichever comes first).
    ///
    /// Graceful shutdown (and even dropping the server) drains and
    /// answers every admitted request first, so this does not error on a
    /// normal shutdown race.
    ///
    /// # Errors
    ///
    /// [`ServeError::WorkerGone`] when the worker shard serving this
    /// request panicked before replying (or every worker is dead);
    /// [`ServeError::DeadlineExceeded`] when the request's deadline
    /// passed without an answer — whether observed here or shed
    /// server-side while still queued.
    pub fn wait(self) -> Result<Prediction, ServeError> {
        let Some(deadline) = self.deadline else {
            return match self.rx.recv() {
                Ok(outcome) => outcome,
                Err(_) => Err(ServeError::WorkerGone),
            };
        };
        loop {
            let now = Instant::now();
            if now >= deadline {
                // One last look: an answer that arrived right at the
                // wire still counts.
                return match self.rx.try_recv() {
                    Ok(outcome) => outcome,
                    Err(mpsc::TryRecvError::Disconnected) => Err(ServeError::WorkerGone),
                    Err(mpsc::TryRecvError::Empty) => Err(ServeError::DeadlineExceeded),
                };
            }
            match self.rx.recv_timeout(deadline - now) {
                Ok(outcome) => return outcome,
                Err(mpsc::RecvTimeoutError::Disconnected) => return Err(ServeError::WorkerGone),
                Err(mpsc::RecvTimeoutError::Timeout) => {} // re-check at the deadline
            }
        }
    }

    /// Waits up to `timeout` for the answer *without* giving up the
    /// slot: on [`ServeError::Timeout`] the request is still in flight
    /// and a later [`PendingPrediction::wait`] (or another
    /// `wait_timeout`) still yields the answer. Useful for polling a
    /// pending request from a select-style loop.
    ///
    /// # Errors
    ///
    /// [`ServeError::Timeout`] when `timeout` elapses first;
    /// [`ServeError::WorkerGone`] / [`ServeError::DeadlineExceeded`] as
    /// in [`PendingPrediction::wait`].
    pub fn wait_timeout(&self, timeout: Duration) -> Result<Prediction, ServeError> {
        match self.rx.recv_timeout(timeout) {
            Ok(outcome) => outcome,
            Err(mpsc::RecvTimeoutError::Timeout) => Err(ServeError::Timeout),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(ServeError::WorkerGone),
        }
    }
}

/// Configures and starts a [`Server`]: shard count, queue bound, batching
/// window, execution policy, deadlines, supervision, and brownout — all
/// over one shared [`EnginePlan`].
pub struct ServerBuilder {
    plan: Arc<EnginePlan>,
    policy: ExecPolicy,
    shards: usize,
    queue_capacity: usize,
    batching: BatchingConfig,
    default_deadline: Option<Duration>,
    restart_budget: u32,
    restart_backoff: Duration,
    brownout: BrownoutConfig,
}

impl ServerBuilder {
    /// Starts from a shared plan with 1 shard, a 1024-request queue
    /// bound, the default batching window, the plan's default policy, no
    /// default deadline, a restart budget of 4 with 10ms base backoff,
    /// and depth-triggered brownout disabled.
    pub fn new(plan: Arc<EnginePlan>) -> Self {
        let policy = plan.default_policy();
        ServerBuilder {
            plan,
            policy,
            shards: 1,
            queue_capacity: 1024,
            batching: BatchingConfig::default(),
            default_deadline: None,
            restart_budget: 4,
            restart_backoff: Duration::from_millis(10),
            brownout: BrownoutConfig::default(),
        }
    }

    /// Number of worker shards, each owning an [`EngineSession`] over the
    /// shared plan (clamped to at least 1).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Bound on queued (admitted, not yet batched) requests; submissions
    /// beyond it are rejected with [`ServeError::Overloaded`] (clamped to
    /// at least 1).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Per-shard micro-batching bounds.
    pub fn batching(mut self, cfg: BatchingConfig) -> Self {
        self.batching = cfg;
        self
    }

    /// Execution policy every shard's session runs.
    pub fn policy(mut self, policy: ExecPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Latency budget applied to every [`ServeClient::submit`] that does
    /// not carry its own ([`ServeClient::submit_with_deadline`] always
    /// wins).
    pub fn default_deadline(mut self, deadline: Duration) -> Self {
        self.default_deadline = Some(deadline);
        self
    }

    /// How many worker deaths the supervisor will repair over the
    /// server's lifetime. Past the budget no more respawns happen:
    /// surviving shards serve browned-out, and if none survive, pending
    /// requests fail fast and the queue closes.
    pub fn restart_budget(mut self, budget: u32) -> Self {
        self.restart_budget = budget;
        self
    }

    /// Base delay before respawning a dead worker; doubles per restart
    /// (capped at 1s). Backoff keeps a crash-looping plan from burning
    /// the whole budget in microseconds.
    pub fn restart_backoff(mut self, backoff: Duration) -> Self {
        self.restart_backoff = backoff;
        self
    }

    /// Enables/configures brownout degradation (see [`BrownoutConfig`];
    /// `high_water` and `low_water` are clamped so `low_water <
    /// high_water`).
    pub fn brownout(mut self, cfg: BrownoutConfig) -> Self {
        self.brownout = BrownoutConfig {
            low_water: cfg.low_water.min(cfg.high_water.saturating_sub(1)),
            ..cfg
        };
        self
    }

    /// Starts the worker shards plus their supervisor and returns the
    /// running server.
    pub fn start(self) -> Server {
        let shards = self.shards;
        let shared = Arc::new(Shared {
            queue: SharedQueue::new(self.queue_capacity),
            stats: (0..shards).map(|_| ShardCounters::default()).collect(),
            policy: self.policy,
            batching: self.batching,
            brownout: self.brownout,
            shutting_down: AtomicBool::new(false),
            brownout_active: AtomicBool::new(false),
            budget_exhausted: AtomicBool::new(false),
            restarts: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            plan: self.plan,
        });
        let input = shared.plan.input_spec();
        let (events_tx, events_rx) = mpsc::channel();
        let handles: Vec<Option<JoinHandle<()>>> = (0..shards)
            .map(|shard| Some(spawn_worker(shard, &shared, events_tx.clone())))
            .collect();
        let supervisor = {
            let shared = Arc::clone(&shared);
            let budget = self.restart_budget;
            let backoff = self.restart_backoff;
            std::thread::Builder::new()
                .name("mn-serve-supervisor".into())
                .spawn(move || {
                    supervisor_loop(shared, events_rx, events_tx, handles, budget, backoff)
                })
                // mn-lint: allow(no-panic-in-serve, reason = "spawn fails only on OS thread exhaustion at server construction — before any request is accepted there is no degraded mode to fall back to, and the panic propagates to the caller of ServerBuilder::start")
                .expect("supervisor thread spawns")
        };
        Server {
            client: ServeClient {
                shared: Arc::clone(&shared),
                input,
                default_deadline: self.default_deadline,
            },
            shared,
            supervisor: Some(supervisor),
        }
    }
}

/// A running ensemble server: N supervised worker shards — each an
/// [`EngineSession`] over one shared [`EnginePlan`] — pulling from one
/// bounded MPMC request queue. See the module docs for the full picture.
pub struct Server {
    client: ServeClient,
    shared: Arc<Shared>,
    supervisor: Option<JoinHandle<()>>,
}

impl Server {
    /// Entry point of the builder API (see [`ServerBuilder`]).
    pub fn builder(plan: Arc<EnginePlan>) -> ServerBuilder {
        ServerBuilder::new(plan)
    }

    /// A cloneable submission handle for client threads.
    pub fn client(&self) -> ServeClient {
        self.client.clone()
    }

    /// Submits one example on the server's own handle (see
    /// [`ServeClient::submit`]).
    ///
    /// # Errors
    ///
    /// Same as [`ServeClient::submit`].
    pub fn submit(&self, example: &Tensor) -> Result<PendingPrediction, ServeError> {
        self.client.submit(example)
    }

    /// Submits with an explicit latency budget (see
    /// [`ServeClient::submit_with_deadline`]).
    ///
    /// # Errors
    ///
    /// Same as [`ServeClient::submit`].
    pub fn submit_with_deadline(
        &self,
        example: &Tensor,
        deadline: Duration,
    ) -> Result<PendingPrediction, ServeError> {
        self.client.submit_with_deadline(example, deadline)
    }

    /// Number of worker shards.
    pub fn num_shards(&self) -> usize {
        self.shared.stats.len()
    }

    /// Requests currently admitted but not yet pulled into a micro-batch.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.depth()
    }

    /// Whether shards are currently serving browned-out answers.
    pub fn brownout_active(&self) -> bool {
        self.shared.brownout_active.load(Ordering::Relaxed)
    }

    /// Graceful shutdown: closes the queue to new submissions (clients
    /// observe [`ServeError::Closed`]), drains every request already
    /// admitted — each receives its answer — then joins the supervisor
    /// and shards and returns per-shard plus aggregate counters.
    ///
    /// A shard that panicked instead of exiting cleanly does not panic
    /// the shutdown: it is counted in [`ServerReport::worker_panics`]
    /// (and [`ServerReport::restarts`] if the supervisor repaired it),
    /// and its counters — kept outside the thread — survive into the
    /// report.
    pub fn shutdown(mut self) -> ServerReport {
        self.stop();
        self.report()
    }

    fn stop(&mut self) {
        self.shared.shutting_down.store(true, Ordering::Relaxed);
        self.shared.queue.close();
        if let Some(s) = self.supervisor.take() {
            let _ = s.join();
        }
    }

    fn report(&self) -> ServerReport {
        let per_shard: Vec<ServerStats> = self.shared.stats.iter().map(|c| c.snapshot()).collect();
        let mut aggregate = ServerStats::default();
        for s in &per_shard {
            aggregate.merge(s);
        }
        ServerReport {
            aggregate,
            per_shard,
            rejected: self.shared.queue.rejected.load(Ordering::Relaxed),
            worker_panics: self.shared.worker_panics.load(Ordering::Relaxed),
            restarts: self.shared.restarts.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

struct WorkerEvent {
    shard: usize,
    panicked: bool,
}

/// Spawns one worker shard: a fresh [`EngineSession`] over the shared
/// plan, running [`shard_loop`] under `catch_unwind` so its death is an
/// event for the supervisor, never a silent capacity loss.
fn spawn_worker(
    shard: usize,
    shared: &Arc<Shared>,
    events: mpsc::Sender<WorkerEvent>,
) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("mn-serve-{shard}"))
        .spawn(move || {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let mut session = shared.plan.session();
                session.set_policy(shared.policy);
                shard_loop(shard, session, &shared);
            }));
            let _ = events.send(WorkerEvent {
                shard,
                panicked: outcome.is_err(),
            });
        })
        // mn-lint: allow(no-panic-in-serve, reason = "spawn fails only on OS thread exhaustion; the supervisor calling this respawn already treats a panicking respawn path as a dead worker and re-enters backoff, so panicking here cannot wedge serving")
        .expect("serving worker spawns")
}

/// Exponential backoff before the `attempt`-th respawn: `base * 2^n`,
/// capped at 1s.
fn restart_delay(base: Duration, attempt: u32) -> Duration {
    base.saturating_mul(1u32 << attempt.min(20))
        .min(Duration::from_secs(1))
}

/// The supervisor: reaps worker exits, respawns panicked shards within
/// the restart budget (with exponential backoff), flips the sticky
/// brownout once the budget is spent, and — if no worker remains to
/// drain the queue — fails pending requests fast instead of letting
/// clients hang. Exits once every worker has exited, joining them all.
fn supervisor_loop(
    shared: Arc<Shared>,
    events_rx: mpsc::Receiver<WorkerEvent>,
    events_tx: mpsc::Sender<WorkerEvent>,
    mut handles: Vec<Option<JoinHandle<()>>>,
    budget: u32,
    backoff: Duration,
) {
    let mut live = handles.iter().filter(|h| h.is_some()).count();
    let mut attempts = 0u32;
    while live > 0 {
        let Ok(event) = events_rx.recv() else { break };
        if let Some(h) = handles[event.shard].take() {
            let _ = h.join();
        }
        live -= 1;
        if !event.panicked {
            continue; // clean exit: queue closed and drained
        }
        shared.worker_panics.fetch_add(1, Ordering::Relaxed);
        if shared.shutting_down.load(Ordering::Relaxed) {
            continue;
        }
        if attempts >= budget {
            shared.budget_exhausted.store(true, Ordering::Relaxed);
            shared.brownout_active.store(true, Ordering::Relaxed);
            if live == 0 {
                shared.queue.fail_pending();
            }
            continue;
        }
        let delay = restart_delay(backoff, attempts);
        attempts += 1;
        std::thread::sleep(delay);
        if shared.shutting_down.load(Ordering::Relaxed) {
            continue;
        }
        handles[event.shard] = Some(spawn_worker(event.shard, &shared, events_tx.clone()));
        live += 1;
        shared.restarts.fetch_add(1, Ordering::Relaxed);
    }
    // All workers are gone. If the queue still holds requests (e.g. the
    // last worker died mid-drain), nothing will ever serve them.
    shared.queue.fail_pending();
    for h in handles.into_iter().flatten() {
        let _ = h.join();
    }
}

/// Sheds one expired request: typed error, no eval FLOPs.
fn shed_expired(request: &Request, stats: &ShardCounters) {
    stats.deadline_expired.fetch_add(1, Ordering::Relaxed);
    let _ = request.reply.send(Err(ServeError::DeadlineExceeded));
}

// mn-lint: hot-path
fn shard_loop(shard: usize, mut session: EngineSession, shared: &Shared) {
    let cfg = shared.batching;
    let max_batch = cfg.max_batch.max(1);
    let input = session.plan().input_spec();
    let row = input.channels * input.height * input.width;
    let k = session.plan().num_classes();
    let mut ws = Workspace::new();
    let stats = &shared.stats[shard];
    // `pop_blocking` returns None only when the queue is closed *and*
    // drained, so every admitted request is answered before exit.
    'serve: while let Some(first) = shared.queue.pop_blocking() {
        let now = Instant::now();
        // In-queue deadline shedding: a request that expired while
        // queued gets its typed error before any eval work is done.
        if first.expired(now) {
            shed_expired(&first, stats);
            continue 'serve;
        }
        // The coalescing window opened when `first` was *enqueued*, not
        // now: a request that already waited out its window in the queue
        // flushes immediately instead of paying `max_wait` twice. The
        // window also never extends past the earliest deadline admitted
        // into the batch.
        let mut close = coalesce_deadline(first.enqueued, now, cfg.max_wait);
        if let Some(d) = first.deadline {
            close = close.min(d);
        }
        // mn-lint: allow(hot-path-alloc, reason = "one Vec per micro-batch, capacity <= max_batch; the batch is the product of this loop iteration, not steady-state churn, and it is consumed (into_iter) before the next pop")
        let mut batch = vec![first];
        while batch.len() < max_batch {
            match shared.queue.pop_until(close) {
                Some(r) => {
                    if r.expired(Instant::now()) {
                        shed_expired(&r, stats);
                        continue;
                    }
                    if let Some(d) = r.deadline {
                        close = close.min(d);
                    }
                    batch.push(r);
                }
                None => break,
            }
        }

        faults::trigger(faults::sites::WORKER_EVAL);

        // One engine call for the whole micro-batch — under the brownout
        // policy when the server is shedding quality to stay up.
        let degraded = brownout_decision(shared);
        let b = batch.len();
        let mut xb = ws.acquire_uninit([b, input.channels, input.height, input.width]);
        for (i, req) in batch.iter().enumerate() {
            xb.data_mut()[i * row..(i + 1) * row].copy_from_slice(req.example.data());
        }
        let scored = if degraded {
            session.predict_scored_with(&xb, shared.brownout.policy)
        } else {
            session.predict_scored(&xb)
        };
        ws.release(xb);
        let answered = Instant::now();
        let labels = ops::argmax_rows(&scored.probs);
        for (i, req) in batch.into_iter().enumerate() {
            let prediction = Prediction {
                // mn-lint: allow(hot-path-alloc, reason = "the probs row is handed across the reply channel and must outlive the workspace-owned batch tensor; one k-float Vec per request is the response payload itself")
                probs: scored.probs.data()[i * k..(i + 1) * k].to_vec(),
                label: labels[i],
                uncertainty: scored.uncertainty[i],
                escalated: scored.escalated[i],
                degraded,
                latency: answered - req.enqueued,
                batch: b,
                shard,
            };
            // A requester that gave up (dropped its handle) is not an
            // error for the server.
            let _ = req.reply.send(Ok(prediction));
        }
        stats.requests.fetch_add(b as u64, Ordering::Relaxed);
        stats.batches.fetch_add(1, Ordering::Relaxed);
        stats
            .max_batch_filled
            .fetch_max(b as u64, Ordering::Relaxed);
        stats
            .escalated
            .fetch_add(scored.num_escalated() as u64, Ordering::Relaxed);
        if degraded {
            stats.degraded.fetch_add(b as u64, Ordering::Relaxed);
        }
    }
    faults::trigger(faults::sites::SHUTDOWN_DRAIN);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultAction;
    use crate::member::EnsembleMember;
    use mn_nn::arch::{Architecture, InputSpec};
    use mn_nn::Network;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    // A started `Server` reaches the process-global fault sites from its
    // worker threads, so every test below that starts one holds
    // `faults::scope()` for its whole body, whether or not it arms
    // anything: a neighbour's armed fault can then never fire in it.

    fn plan() -> Arc<EnginePlan> {
        let arch = Architecture::mlp("m", InputSpec::new(1, 2, 2), 3, vec![6]);
        let members: Vec<EnsembleMember> = (0..2)
            .map(|s| EnsembleMember::new(format!("m{s}"), Network::seeded(&arch, s)))
            .collect();
        EnginePlan::new(members, 8).unwrap().into_shared()
    }

    #[test]
    fn serves_single_requests_with_latency_and_stats() {
        let _scope = faults::scope();
        let server = Server::builder(plan()).start();
        let mut rng = StdRng::seed_from_u64(1);
        let mut pending = Vec::new();
        for _ in 0..5 {
            let x = Tensor::randn([1, 2, 2], 1.0, &mut rng);
            pending.push(server.submit(&x).unwrap());
        }
        for p in pending {
            let got = p.wait().unwrap();
            assert_eq!(got.probs.len(), 3);
            assert!(got.label < 3);
            assert!(got.batch >= 1);
            assert_eq!(got.shard, 0, "single-shard server has one shard id");
            assert!(!got.degraded, "healthy server serves full quality");
            assert!(got.latency > Duration::ZERO);
            let sum: f32 = got.probs.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4);
        }
        let report = server.shutdown();
        assert_eq!(report.aggregate.requests, 5);
        assert!(report.aggregate.batches >= 1 && report.aggregate.batches <= 5);
        assert!(report.aggregate.mean_batch() >= 1.0);
        assert_eq!(report.per_shard.len(), 1);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.restarts, 0);
        assert_eq!(report.worker_panics, 0);
        assert_eq!(report.aggregate.deadline_expired, 0);
        assert_eq!(report.aggregate.degraded, 0);
    }

    #[test]
    fn rejects_wrong_geometry_eagerly() {
        let _scope = faults::scope();
        let server = Server::builder(plan()).start();
        let bad = Tensor::zeros([2, 2, 2]);
        assert!(matches!(
            server.submit(&bad),
            Err(ServeError::BadExample { .. })
        ));
        let batch_of_two = Tensor::zeros([2, 1, 2, 2]);
        assert!(matches!(
            server.submit(&batch_of_two),
            Err(ServeError::BadExample { .. })
        ));
        server.shutdown();
    }

    #[test]
    fn accepts_three_d_and_unit_batch_examples() {
        let _scope = faults::scope();
        let server = Server::builder(plan()).start();
        let a = server.submit(&Tensor::zeros([1, 2, 2])).unwrap();
        let b = server.submit(&Tensor::zeros([1, 1, 2, 2])).unwrap();
        let (pa, pb) = (a.wait().unwrap(), b.wait().unwrap());
        assert_eq!(pa.probs, pb.probs, "same example, same answer");
        server.shutdown();
    }

    #[test]
    fn shutdown_closes_outstanding_clients() {
        let _scope = faults::scope();
        let server = Server::builder(plan()).start();
        let client = server.client();
        server.shutdown();
        assert!(matches!(
            client.submit(&Tensor::zeros([1, 2, 2])),
            Err(ServeError::Closed)
        ));
    }

    #[test]
    fn micro_batching_coalesces_under_load() {
        let _scope = faults::scope();
        // A generous wait window plus a burst submitted before the first
        // answer can complete must produce fewer engine calls than
        // requests.
        let server = Server::builder(plan())
            .batching(BatchingConfig {
                max_batch: 32,
                max_wait: Duration::from_millis(50),
            })
            .start();
        let mut pending = Vec::new();
        for _ in 0..16 {
            pending.push(server.submit(&Tensor::zeros([1, 2, 2])).unwrap());
        }
        for p in pending {
            p.wait().unwrap();
        }
        let report = server.shutdown();
        assert_eq!(report.aggregate.requests, 16);
        assert!(
            report.aggregate.batches < 16,
            "expected coalescing, got {} batches",
            report.aggregate.batches
        );
        assert!(report.aggregate.max_batch_filled > 1);
    }

    #[test]
    fn sharded_server_answers_every_request() {
        let _scope = faults::scope();
        let server = Server::builder(plan())
            .shards(3)
            .batching(BatchingConfig {
                max_batch: 4,
                max_wait: Duration::from_micros(200),
            })
            .start();
        assert_eq!(server.num_shards(), 3);
        let mut rng = StdRng::seed_from_u64(2);
        let pending: Vec<_> = (0..24)
            .map(|_| {
                let x = Tensor::randn([1, 2, 2], 1.0, &mut rng);
                server.submit(&x).unwrap()
            })
            .collect();
        for p in pending {
            let got = p.wait().unwrap();
            assert!(got.shard < 3);
        }
        let report = server.shutdown();
        assert_eq!(report.aggregate.requests, 24);
        assert_eq!(report.per_shard.len(), 3);
        let summed: u64 = report.per_shard.iter().map(|s| s.requests).sum();
        assert_eq!(summed, 24, "per-shard stats must sum to the aggregate");
    }

    #[test]
    fn overload_rejects_typed_then_recovers() {
        let _scope = faults::scope();
        // Tiny queue, small batches: flooding submits must hit the bound
        // with a typed Overloaded error...
        let server = Server::builder(plan())
            .shards(1)
            .queue_capacity(2)
            .batching(BatchingConfig {
                max_batch: 2,
                max_wait: Duration::ZERO,
            })
            .start();
        let x = Tensor::zeros([1, 2, 2]);
        let mut pending = Vec::new();
        let mut overloaded = None;
        for _ in 0..100_000 {
            match server.submit(&x) {
                Ok(p) => pending.push(p),
                Err(ServeError::Overloaded { queue_depth }) => {
                    overloaded = Some(queue_depth);
                    break;
                }
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
        let depth = overloaded.expect("a tiny queue must overflow under a submit flood");
        assert_eq!(depth, 2, "rejection reports the configured bound");
        // ...every admitted request still gets its answer...
        for p in pending {
            p.wait().expect("admitted requests are served");
        }
        // ...and the server recovers: later submits succeed again.
        let recovered = server
            .submit(&x)
            .expect("server accepts again once the queue drains");
        recovered.wait().unwrap();
        let report = server.shutdown();
        assert!(report.rejected >= 1, "rejections are counted");
    }

    #[test]
    fn panicking_worker_neither_poisons_queue_nor_hangs_clients() {
        // Two shards; an injected panic at the queue-pop failpoint kills
        // whichever shard dequeues next *while that shard holds the
        // queue lock* — the worst case for mutex poisoning.
        let scope = faults::scope();
        let server = Server::builder(plan())
            .shards(2)
            .restart_backoff(Duration::from_millis(1))
            .batching(BatchingConfig {
                max_batch: 4,
                max_wait: Duration::from_micros(200),
            })
            .start();
        let x = Tensor::zeros([1, 2, 2]);
        // Sanity: the server works before the injected failure.
        server.submit(&x).unwrap().wait().unwrap();

        scope.enable_times(faults::sites::QUEUE_POP, FaultAction::Panic, 1);
        let orphan = server.submit(&x).unwrap();
        // The orphaned request returns a typed error instead of blocking
        // forever on a reply that can never come.
        assert_eq!(orphan.wait().unwrap_err(), ServeError::WorkerGone);

        // The queue mutex was poisoned by the dying worker, but both the
        // client path (submit locks it) and the other shards recover:
        // the server keeps answering.
        for _ in 0..8 {
            let got = server
                .submit(&x)
                .expect("submits succeed after a worker death")
                .wait()
                .expect("remaining shards keep serving");
            assert_eq!(got.probs.len(), 3);
        }
        // Shutdown reports the death instead of re-panicking the caller,
        // and the counters — kept outside the dead thread — survive.
        let report = server.shutdown();
        assert_eq!(report.worker_panics, 1);
        assert!(report.restarts <= 1, "at most one repair for one death");
        assert_eq!(report.per_shard.len(), 2);
        assert!(report.aggregate.requests >= 9);
    }

    #[test]
    fn supervisor_respawns_dead_worker_and_keeps_serving() {
        // Single shard: service after the panic *proves* the respawn —
        // there is no surviving shard to hide behind.
        let scope = faults::scope();
        let server = Server::builder(plan())
            .shards(1)
            .restart_backoff(Duration::from_millis(1))
            .start();
        let x = Tensor::zeros([1, 2, 2]);
        server.submit(&x).unwrap().wait().unwrap();

        scope.enable_times(faults::sites::QUEUE_POP, FaultAction::Panic, 1);
        let orphan = server.submit(&x).unwrap();
        assert_eq!(orphan.wait().unwrap_err(), ServeError::WorkerGone);

        for _ in 0..4 {
            server
                .submit(&x)
                .expect("queue stays open through the respawn")
                .wait()
                .expect("the respawned shard serves");
        }
        let report = server.shutdown();
        assert_eq!(report.worker_panics, 1);
        assert_eq!(report.restarts, 1);
        assert_eq!(report.per_shard.len(), 1);
        assert!(
            report.per_shard[0].requests >= 5,
            "counters accumulate across shard incarnations, got {:?}",
            report.per_shard[0]
        );
    }

    #[test]
    fn exhausted_restart_budget_fails_pending_fast() {
        // Budget 0: the one worker dies and is never repaired. Pending
        // requests must fail with typed errors — no client hangs — and
        // the queue closes to new submissions.
        let scope = faults::scope();
        scope.enable_times(faults::sites::QUEUE_POP, FaultAction::Panic, 1);
        let server = Server::builder(plan()).shards(1).restart_budget(0).start();
        let x = Tensor::zeros([1, 2, 2]);
        let p1 = server.submit(&x).unwrap();
        // p2 races the supervisor's fail-fast: admitted (then failed) or
        // rejected at the closed queue — both are typed, neither hangs.
        match server.submit(&x) {
            Ok(p2) => assert_eq!(p2.wait().unwrap_err(), ServeError::WorkerGone),
            Err(ServeError::Closed) => {}
            Err(e) => panic!("unexpected submit error: {e}"),
        }
        assert_eq!(p1.wait().unwrap_err(), ServeError::WorkerGone);
        // The queue eventually closes to new work.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match server.submit(&x) {
                Err(ServeError::Closed) => break,
                Ok(p) => assert_eq!(p.wait().unwrap_err(), ServeError::WorkerGone),
                Err(e) => panic!("unexpected submit error: {e}"),
            }
            assert!(Instant::now() < deadline, "queue never closed");
            std::thread::sleep(Duration::from_millis(1));
        }
        let report = server.shutdown();
        assert_eq!(report.worker_panics, 1);
        assert_eq!(report.restarts, 0);
    }

    #[test]
    fn coalesce_deadline_anchors_at_enqueue_time() {
        let t0 = Instant::now();
        let wait = Duration::from_millis(10);
        // Fresh request: the window runs from its enqueue time.
        assert_eq!(coalesce_deadline(t0, t0, wait), t0 + wait);
        // Popped mid-window: the remaining window, not a fresh one.
        let now = t0 + Duration::from_millis(4);
        assert_eq!(coalesce_deadline(t0, now, wait), t0 + wait);
        // Popped after the window already expired in the queue: flush
        // now, never wait again.
        let late = t0 + Duration::from_millis(25);
        assert_eq!(coalesce_deadline(t0, late, wait), late);
    }

    #[test]
    fn batching_deadline_does_not_double_charge_queued_requests() {
        // Regression: the deadline used to be `Instant::now() + max_wait`
        // at *pop* time, so a request that already sat in the queue paid
        // its queue wait plus a second full window. Stall the (single)
        // worker's first eval long enough for requests to age in the
        // queue, then check the aged request is answered within ~one
        // window of its submit, not two.
        let scope = faults::scope();
        let max_wait = Duration::from_millis(300);
        scope.enable_times(
            faults::sites::WORKER_EVAL,
            FaultAction::Stall(Duration::from_millis(250)),
            1,
        );
        let server = Server::builder(plan())
            .shards(1)
            .batching(BatchingConfig {
                max_batch: 2,
                max_wait,
            })
            .start();
        let x = Tensor::zeros([1, 2, 2]);
        // r1 is popped immediately; r2 fills its batch (max_batch 2),
        // whose eval then stalls 250ms while r3 ages in the queue.
        let r1 = server.submit(&x).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let r2 = server.submit(&x).unwrap();
        let r3 = server.submit(&x).unwrap();
        // After the stall: r3 opens the next batch alone at ~250ms of
        // age — its window expired in the queue, so it must flush nearly
        // immediately. The old code waited a fresh 300ms window on top
        // (~570ms total latency).
        let _ = r1.wait().unwrap();
        let _ = r2.wait().unwrap();
        let p3 = r3.wait().unwrap();
        assert!(
            p3.latency < Duration::from_millis(450),
            "queued request was charged a second window: {:?}",
            p3.latency
        );
        server.shutdown();
    }

    #[test]
    fn expired_requests_are_shed_before_eval() {
        // Stall the worker's first eval; a deadline request aging in the
        // queue behind it must be shed with DeadlineExceeded — before
        // any eval FLOPs are spent on it — and counted.
        let scope = faults::scope();
        scope.enable_times(
            faults::sites::WORKER_EVAL,
            FaultAction::Stall(Duration::from_millis(150)),
            1,
        );
        let server = Server::builder(plan())
            .shards(1)
            .batching(BatchingConfig {
                max_batch: 1,
                max_wait: Duration::ZERO,
            })
            .start();
        let x = Tensor::zeros([1, 2, 2]);
        let r0 = server.submit(&x).unwrap();
        let r1 = server
            .submit_with_deadline(&x, Duration::from_millis(10))
            .unwrap();
        assert_eq!(r1.wait().unwrap_err(), ServeError::DeadlineExceeded);
        r0.wait().expect("the undeadlined request is served");
        let report = server.shutdown();
        assert_eq!(report.aggregate.requests, 1);
        assert_eq!(report.aggregate.deadline_expired, 1);
        let per_shard: u64 = report.per_shard.iter().map(|s| s.deadline_expired).sum();
        assert_eq!(per_shard, report.aggregate.deadline_expired);
    }

    #[test]
    fn default_deadline_applies_to_plain_submits() {
        let scope = faults::scope();
        scope.enable_times(
            faults::sites::WORKER_EVAL,
            FaultAction::Stall(Duration::from_millis(150)),
            1,
        );
        let server = Server::builder(plan())
            .shards(1)
            .default_deadline(Duration::from_millis(10))
            .batching(BatchingConfig {
                max_batch: 1,
                max_wait: Duration::ZERO,
            })
            .start();
        let x = Tensor::zeros([1, 2, 2]);
        // Occupy the worker so the next submit ages past its default
        // deadline in the queue.
        let r0 = server.submit(&x).unwrap();
        let r1 = server.submit(&x).unwrap();
        assert_eq!(r1.wait().unwrap_err(), ServeError::DeadlineExceeded);
        // r0 carried the default deadline too and the stall outlives it.
        assert_eq!(r0.wait().unwrap_err(), ServeError::DeadlineExceeded);
        server.shutdown();
    }

    #[test]
    fn coalescing_never_holds_batch_past_earliest_deadline() {
        let _scope = faults::scope();
        // A long batching window (500ms) must be cut short by an
        // admitted request's much nearer deadline: the whole batch
        // flushes at ~the deadline, not at the window.
        let server = Server::builder(plan())
            .shards(1)
            .batching(BatchingConfig {
                max_batch: 8,
                max_wait: Duration::from_millis(500),
            })
            .start();
        let x = Tensor::zeros([1, 2, 2]);
        let t0 = Instant::now();
        let slow = server.submit(&x).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        let _hurried = server.submit_with_deadline(&x, Duration::from_millis(40));
        let got = slow.wait().unwrap();
        let elapsed = t0.elapsed();
        assert!(
            elapsed < Duration::from_millis(300),
            "deadline did not pull the batch close in: {elapsed:?} (latency {:?})",
            got.latency
        );
        server.shutdown();
    }

    #[test]
    fn wait_timeout_leaves_answer_claimable() {
        let scope = faults::scope();
        scope.enable_times(
            faults::sites::WORKER_EVAL,
            FaultAction::Stall(Duration::from_millis(120)),
            1,
        );
        let server = Server::builder(plan()).shards(1).start();
        let p = server.submit(&Tensor::zeros([1, 2, 2])).unwrap();
        // The stalled worker cannot answer within 5ms...
        assert_eq!(
            p.wait_timeout(Duration::from_millis(5)).unwrap_err(),
            ServeError::Timeout
        );
        // ...but the timeout consumed nothing: the answer still arrives.
        let got = p.wait().expect("answer remains claimable after a timeout");
        assert_eq!(got.probs.len(), 3);
        let report = server.shutdown();
        assert_eq!(report.aggregate.requests, 1);
    }

    #[test]
    fn brownout_degrades_under_pressure_and_recovers() {
        // Stall the first eval so a backlog builds past the high-water
        // mark: subsequent batches must be served degraded (gate-only)
        // until the queue drains to the low-water mark, then recover.
        let scope = faults::scope();
        scope.enable_times(
            faults::sites::WORKER_EVAL,
            FaultAction::Stall(Duration::from_millis(100)),
            1,
        );
        let server = Server::builder(plan())
            .shards(1)
            .brownout(BrownoutConfig {
                high_water: 4,
                low_water: 1,
                ..BrownoutConfig::default()
            })
            .batching(BatchingConfig {
                max_batch: 2,
                max_wait: Duration::from_millis(5),
            })
            .start();
        let x = Tensor::zeros([1, 2, 2]);
        let pending: Vec<_> = (0..10).map(|_| server.submit(&x).unwrap()).collect();
        let mut degraded = 0;
        let mut full = 0;
        for p in pending {
            let got = p.wait().unwrap();
            if got.degraded {
                degraded += 1;
            } else {
                full += 1;
            }
        }
        assert!(
            degraded > 0,
            "backlog past high water must trigger brownout"
        );
        assert!(full > 0, "brownout must recover as the queue drains");
        // Fully drained: the next answer is full quality again.
        let calm = server.submit(&x).unwrap().wait().unwrap();
        assert!(!calm.degraded, "recovered server serves full quality");
        assert!(!server.brownout_active());
        let report = server.shutdown();
        assert_eq!(report.aggregate.degraded, degraded as u64);
        let per_shard: u64 = report.per_shard.iter().map(|s| s.degraded).sum();
        assert_eq!(per_shard, report.aggregate.degraded);
    }

    #[test]
    fn submit_rejects_non_finite_examples() {
        let _scope = faults::scope();
        let server = Server::builder(plan()).start();
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let x = Tensor::from_vec([1, 2, 2], vec![0.0, bad, 0.0, 0.0]);
            match server.submit(&x) {
                Err(ServeError::BadExample { detail }) => {
                    assert!(
                        detail.contains("non-finite"),
                        "unhelpful rejection detail: {detail}"
                    );
                    assert!(detail.contains("index 1"), "detail locates the value");
                }
                Err(other) => panic!("wrong rejection for non-finite example: {other}"),
                Ok(_) => panic!("non-finite example was admitted"),
            }
        }
        // Large-but-finite values are legal inputs.
        let big = Tensor::from_vec([1, 2, 2], vec![1e30; 4]);
        server.submit(&big).unwrap().wait().unwrap();
        let report = server.shutdown();
        assert_eq!(report.aggregate.requests, 1);
    }

    #[test]
    fn cascade_server_reports_uncertainty_and_escalation() {
        let _scope = faults::scope();
        // Threshold 1.0: (almost) everything trusts the gate. The point
        // here is the surface, not the exit rate: predictions carry
        // uncertainty/escalated and stats count escalations per shard.
        let server = Server::builder(plan())
            .policy(ExecPolicy::Cascade(CascadePolicy::max_prob(1.0)))
            .shards(2)
            .start();
        let mut rng = StdRng::seed_from_u64(3);
        let pending: Vec<_> = (0..12)
            .map(|_| {
                server
                    .submit(&Tensor::randn([1, 2, 2], 1.0, &mut rng))
                    .unwrap()
            })
            .collect();
        let mut exited = 0;
        for p in pending {
            let got = p.wait().unwrap();
            assert!((0.0..=1.0).contains(&got.uncertainty));
            if !got.escalated {
                exited += 1;
            }
        }
        assert!(exited > 0, "a 1.0 threshold must exit some requests early");
        let report = server.shutdown();
        assert_eq!(report.aggregate.requests, 12);
        assert_eq!(report.aggregate.escalated, 12 - exited as u64);
        assert!((report.aggregate.early_exit_rate() - exited as f64 / 12.0).abs() < 1e-12);
        let per_shard_escalated: u64 = report.per_shard.iter().map(|s| s.escalated).sum();
        assert_eq!(per_shard_escalated, report.aggregate.escalated);

        // Non-cascade servers still populate the surface: everything
        // escalates and uncertainty reflects the ensemble average.
        let server = Server::builder(plan()).start();
        let got = server
            .submit(&Tensor::zeros([1, 2, 2]))
            .unwrap()
            .wait()
            .unwrap();
        assert!(got.escalated);
        let report = server.shutdown();
        assert_eq!(report.aggregate.escalated, report.aggregate.requests);
        assert_eq!(report.aggregate.early_exit_rate(), 0.0);
    }

    #[test]
    fn shutdown_drains_admitted_requests() {
        let _scope = faults::scope();
        // Requests admitted before shutdown must be answered, not dropped
        // with Closed — even with a batching window that would otherwise
        // hold them open.
        let server = Server::builder(plan())
            .shards(2)
            .batching(BatchingConfig {
                max_batch: 64,
                max_wait: Duration::from_millis(200),
            })
            .start();
        let pending: Vec<_> = (0..12)
            .map(|_| server.submit(&Tensor::zeros([1, 2, 2])).unwrap())
            .collect();
        let report = server.shutdown();
        assert_eq!(report.aggregate.requests, 12, "shutdown drained the queue");
        for p in pending {
            p.wait()
                .expect("in-flight request answered during graceful shutdown");
        }
    }
}
