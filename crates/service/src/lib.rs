//! Multi-tenant campaign service.
//!
//! Runs many solver campaigns — parameter sweeps, chaos campaigns,
//! technique/policy A/Bs — concurrently inside one process, multiplexed
//! over a small pool of OS worker threads. Each job executes the existing
//! [`AppConfig`]-driven fault-tolerant solve on the pooled fiber runtime
//! ([`ulfm_sim::run`]), so a "job" is an entire simulated MPI world, not a
//! single rank.
//!
//! The contract the service adds on top of the runtime:
//!
//! * **Bounded submission with backpressure** — [`Service::submit`] blocks
//!   when the queue is full; [`Service::try_submit`] refuses instead and
//!   hands the [`JobSpec`] back untouched.
//! * **Panic isolation** — a worker panic (inside service glue, a custom
//!   job body, or a solve whose runtime re-raised rank errors) is caught
//!   at the job boundary and lands that job in [`JobState::Failed`] with
//!   the panic payload. Shared maps use poison-recovering locks, so a
//!   sabotaged job never wedges the queue or its siblings.
//! * **Cooperative cancellation** — every job carries an
//!   `Arc<AtomicBool>` token (callers may supply their own). Solve jobs
//!   thread it into [`AppConfig::cancel`], where the application polls it
//!   at epoch boundaries behind a broadcast + fault-tolerant agree and all
//!   simulated ranks exit together; queued jobs cancelled before a worker
//!   picks them up never start at all.
//! * **Streamed results** — [`Service::start`] returns an `mpsc` receiver
//!   of [`JobEvent`]s ([`sink`] renders them as JSONL for the CLI).
//!
//! Ordering guarantee: per job, events always appear in the order
//! `Queued → Started → (Progress | Recovered)* → terminal`; events of
//! different jobs interleave arbitrarily.

pub mod sink;

use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::Duration;

use ftsg_core::app::{keys, run_app};
use ftsg_core::config::{AppConfig, AppEvent, AppObserver};
use ulfm_sim::{run, Report, RunConfig};

/// Opaque job handle, unique per [`Service`] for its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Lifecycle state of a job. `Done`, `Failed` and `Cancelled` are
/// terminal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Accepted into the bounded queue, not yet picked by a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished successfully; the output is available until taken.
    Done,
    /// The job died — panic payload or error text inside.
    Failed(String),
    /// The cancellation token was honoured (before or during the run).
    Cancelled,
}

impl JobState {
    /// True for `Done` / `Failed` / `Cancelled`.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }
}

/// One entry of the streamed results API.
#[derive(Debug, Clone, PartialEq)]
pub enum JobEvent {
    /// Accepted into the queue.
    Queued { id: JobId, name: String },
    /// A worker started executing the job.
    Started { id: JobId },
    /// Solve progress: rank 0 reached epoch boundary `step` of `steps`.
    Progress { id: JobId, step: u64, steps: u64 },
    /// The solve committed a recovery at detection step `step` covering
    /// `ranks` failed ranks.
    Recovered { id: JobId, step: u64, ranks: usize },
    /// Terminal: success. `makespan` is the solve's virtual makespan in
    /// seconds (0 for custom jobs).
    Done { id: JobId, makespan: f64 },
    /// Terminal: panic or error, with the payload.
    Failed { id: JobId, error: String },
    /// Terminal: cancellation honoured.
    Cancelled { id: JobId },
}

impl JobEvent {
    /// The job this event belongs to.
    pub fn id(&self) -> JobId {
        match *self {
            JobEvent::Queued { id, .. }
            | JobEvent::Started { id }
            | JobEvent::Progress { id, .. }
            | JobEvent::Recovered { id, .. }
            | JobEvent::Done { id, .. }
            | JobEvent::Failed { id, .. }
            | JobEvent::Cancelled { id } => id,
        }
    }

    /// True if this event ends its job's lifecycle.
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobEvent::Done { .. } | JobEvent::Failed { .. } | JobEvent::Cancelled { .. })
    }
}

/// Output of a custom job body (downcast by the submitter).
pub type CustomOutput = Box<dyn Any + Send>;

/// Handle passed to custom job bodies so long-running closures can
/// cooperate with the service.
pub struct JobCtx {
    id: JobId,
    cancel: Arc<AtomicBool>,
    events: EventTx,
}

impl JobCtx {
    /// This job's id.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// True once cancellation was requested; poll between work items.
    pub fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// Stream a progress event for this job.
    pub fn progress(&self, step: u64, steps: u64) {
        self.events.send(JobEvent::Progress { id: self.id, step, steps });
    }
}

/// Body of a custom job. Returning `Err` marks the job `Failed`; a panic
/// does the same with the panic payload (and nothing else — the pool and
/// sibling jobs are unaffected).
pub type CustomFn = Box<dyn FnOnce(&JobCtx) -> Result<CustomOutput, String> + Send>;

/// A solver run as a service job.
#[derive(Debug, Clone)]
pub struct SolveSpec {
    /// Full application configuration (technique, fault plan, ...).
    pub cfg: AppConfig,
    /// Runtime RNG seed (fault timing reproducibility).
    pub seed: u64,
    /// Stall-detector override; `None` keeps the runtime default.
    pub stall: Option<Duration>,
    /// Fiber-pool worker threads *inside* the simulated world. Service
    /// jobs already run many worlds concurrently, so 1 (the default) is
    /// right unless jobs are huge and few.
    pub sim_workers: usize,
}

/// What a job executes.
pub enum JobWork {
    /// A full fault-tolerant solve on the simulated runtime. Boxed so a
    /// queued job costs a pointer, not a full `AppConfig`.
    Solve(Box<SolveSpec>),
    /// An arbitrary closure (the chaos engine uses this to keep its
    /// oracle checks next to the run).
    Custom(CustomFn),
}

/// A submission: a name for humans plus the work and an optional
/// caller-owned cancellation token.
pub struct JobSpec {
    /// Display name, echoed in [`JobEvent::Queued`] and the JSONL sink.
    pub name: String,
    /// The payload.
    pub work: JobWork,
    /// External cancellation token; one is allocated if absent.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl JobSpec {
    /// A solve job with the runtime-default stall timeout and a
    /// single-threaded fiber pool.
    pub fn solve(name: impl Into<String>, cfg: AppConfig, seed: u64) -> Self {
        JobSpec {
            name: name.into(),
            work: JobWork::Solve(Box::new(SolveSpec { cfg, seed, stall: None, sim_workers: 1 })),
            cancel: None,
        }
    }

    /// A custom job.
    pub fn custom(
        name: impl Into<String>,
        f: impl FnOnce(&JobCtx) -> Result<CustomOutput, String> + Send + 'static,
    ) -> Self {
        JobSpec { name: name.into(), work: JobWork::Custom(Box::new(f)), cancel: None }
    }

    /// Test hook: a job whose body panics with `msg` as soon as it runs.
    /// Used to prove panic isolation (the job must land `Failed` with
    /// `msg` in the payload while siblings and the queue stay healthy).
    pub fn sabotage(name: impl Into<String>, msg: impl Into<String>) -> Self {
        let msg = msg.into();
        JobSpec::custom(name, move |_jc| -> Result<CustomOutput, String> {
            panic!("{msg}");
        })
    }

    /// Attach a caller-owned cancellation token (set it to `true` at any
    /// time; the service also sets it on [`Service::cancel`]).
    pub fn with_cancel_token(mut self, token: Arc<AtomicBool>) -> Self {
        self.cancel = Some(token);
        self
    }
}

/// Why a submission was refused.
pub enum SubmitError {
    /// `try_submit` only: the bounded queue is full right now. The spec
    /// comes back so the caller can retry or block on [`Service::submit`].
    Full(JobSpec),
    /// The service is shutting down; the spec comes back.
    Closed(JobSpec),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Full(s) => write!(f, "queue full (job {:?} refused)", s.name),
            SubmitError::Closed(s) => write!(f, "service closed (job {:?} refused)", s.name),
        }
    }
}

// `JobWork::Custom` holds an opaque closure, so `Debug` is by hand.
impl std::fmt::Debug for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Full(s) => write!(f, "Full({:?})", s.name),
            SubmitError::Closed(s) => write!(f, "Closed({:?})", s.name),
        }
    }
}

/// Terminal result of a job, kept in the registry until taken.
pub enum JobOutput {
    /// The full runtime report of a solve (also present for cancelled
    /// solves that honoured the token mid-run).
    Solve(Report),
    /// Whatever the custom body returned.
    Custom(CustomOutput),
}

/// Service construction knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads executing jobs (each runs one job at a time).
    pub workers: usize,
    /// Bounded submission-queue depth; `submit` blocks past this.
    pub queue_depth: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig { workers: 2, queue_depth: 64 }
    }
}

/// Lock a mutex, recovering from poison: a panicking job must never make
/// service state unusable for its siblings, and every critical section
/// here leaves the registry consistent at any intermediate point.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// `Sender` is `Send` but not `Sync`; the observer closures handed to the
/// runtime need `Sync`, so event emission goes through a tiny mutex (low
/// rate: queue/start/terminal plus one event per solve epoch).
#[derive(Clone)]
struct EventTx(Arc<Mutex<Sender<JobEvent>>>);

impl EventTx {
    fn send(&self, ev: JobEvent) {
        // A dropped receiver is fine — the caller stopped listening.
        let _ = lock_recover(&self.0).send(ev);
    }
}

struct JobRecord {
    name: String,
    state: JobState,
    cancel: Arc<AtomicBool>,
    output: Option<JobOutput>,
}

struct Inner {
    jobs: Mutex<HashMap<u64, JobRecord>>,
    /// Signalled whenever any job reaches a terminal state.
    terminal_cv: Condvar,
    /// Jobs submitted and not yet terminal (queued + running).
    open: Mutex<usize>,
    events: EventTx,
}

impl Inner {
    fn set_terminal(&self, id: u64, state: JobState, output: Option<JobOutput>) {
        debug_assert!(state.is_terminal());
        {
            let mut jobs = lock_recover(&self.jobs);
            if let Some(rec) = jobs.get_mut(&id) {
                rec.state = state;
                rec.output = output;
            }
        }
        *lock_recover(&self.open) -= 1;
        self.terminal_cv.notify_all();
    }
}

struct QueuedJob {
    id: u64,
    work: JobWork,
    cancel: Arc<AtomicBool>,
}

/// The job service. Dropping it (or calling [`Service::shutdown`]) closes
/// the queue and joins the workers after the queue drains.
pub struct Service {
    inner: Arc<Inner>,
    submit_tx: Option<SyncSender<QueuedJob>>,
    workers: Vec<thread::JoinHandle<()>>,
    next_id: std::sync::atomic::AtomicU64,
}

impl Service {
    /// Start the worker pool. Returns the service handle plus the event
    /// stream (unbounded: the service never blocks on a slow listener).
    pub fn start(cfg: ServiceConfig) -> (Service, Receiver<JobEvent>) {
        let (ev_tx, ev_rx) = channel();
        let events = EventTx(Arc::new(Mutex::new(ev_tx)));
        let inner = Arc::new(Inner {
            jobs: Mutex::new(HashMap::new()),
            terminal_cv: Condvar::new(),
            open: Mutex::new(0),
            events,
        });
        let (tx, rx) = sync_channel::<QueuedJob>(cfg.queue_depth.max(1));
        let shared_rx = Arc::new(Mutex::new(rx));
        let workers = (0..cfg.workers.max(1))
            .map(|w| {
                let inner = Arc::clone(&inner);
                let shared_rx = Arc::clone(&shared_rx);
                thread::Builder::new()
                    .name(format!("ftsg-serve-{w}"))
                    .spawn(move || worker_loop(&inner, &shared_rx))
                    .expect("spawn service worker")
            })
            .collect();
        let svc = Service {
            inner,
            submit_tx: Some(tx),
            workers,
            next_id: std::sync::atomic::AtomicU64::new(1),
        };
        (svc, ev_rx)
    }

    fn register(&self, spec: JobSpec) -> (QueuedJob, JobId) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let cancel = spec.cancel.unwrap_or_default();
        let rec = JobRecord {
            name: spec.name.clone(),
            state: JobState::Queued,
            cancel: Arc::clone(&cancel),
            output: None,
        };
        lock_recover(&self.inner.jobs).insert(id, rec);
        *lock_recover(&self.inner.open) += 1;
        self.inner.events.send(JobEvent::Queued { id: JobId(id), name: spec.name });
        (QueuedJob { id, work: spec.work, cancel }, JobId(id))
    }

    /// Roll back a registration whose enqueue was refused, handing the
    /// caller back a spec equivalent to the one submitted (minus the
    /// consumed `Queued` event, which gets a matching `Cancelled`).
    fn unregister(&self, job: QueuedJob) -> JobSpec {
        let rec = lock_recover(&self.inner.jobs).remove(&job.id);
        *lock_recover(&self.inner.open) -= 1;
        self.inner.terminal_cv.notify_all();
        self.inner.events.send(JobEvent::Cancelled { id: JobId(job.id) });
        JobSpec {
            name: rec.map(|r| r.name).unwrap_or_default(),
            work: job.work,
            cancel: Some(job.cancel),
        }
    }

    /// Submit a job, blocking while the bounded queue is full
    /// (backpressure). Returns the job id once accepted.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, SubmitError> {
        let (job, id) = self.register(spec);
        let Some(tx) = self.submit_tx.as_ref() else {
            return Err(SubmitError::Closed(self.unregister(job)));
        };
        match tx.send(job) {
            Ok(()) => Ok(id),
            // Workers gone: roll the registration back.
            Err(std::sync::mpsc::SendError(job)) => Err(SubmitError::Closed(self.unregister(job))),
        }
    }

    /// Submit without blocking: `Err(Full)` (spec returned) when the
    /// queue is at capacity.
    pub fn try_submit(&self, spec: JobSpec) -> Result<JobId, SubmitError> {
        let (job, id) = self.register(spec);
        let Some(tx) = self.submit_tx.as_ref() else {
            return Err(SubmitError::Closed(self.unregister(job)));
        };
        match tx.try_send(job) {
            Ok(()) => Ok(id),
            Err(TrySendError::Full(job)) => Err(SubmitError::Full(self.unregister(job))),
            Err(TrySendError::Disconnected(job)) => Err(SubmitError::Closed(self.unregister(job))),
        }
    }

    /// Request cancellation. Queued jobs are dropped before they start;
    /// running solves exit at their next epoch boundary. Returns `false`
    /// for unknown ids and jobs already terminal.
    pub fn cancel(&self, id: JobId) -> bool {
        let jobs = lock_recover(&self.inner.jobs);
        match jobs.get(&id.0) {
            Some(rec) if !rec.state.is_terminal() => {
                rec.cancel.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// Current state of a job (`None` for unknown ids).
    pub fn state(&self, id: JobId) -> Option<JobState> {
        lock_recover(&self.inner.jobs).get(&id.0).map(|r| r.state.clone())
    }

    /// Block until `id` reaches a terminal state; returns it (`None` for
    /// unknown ids).
    pub fn wait(&self, id: JobId) -> Option<JobState> {
        let mut jobs = lock_recover(&self.inner.jobs);
        loop {
            match jobs.get(&id.0) {
                None => return None,
                Some(rec) if rec.state.is_terminal() => return Some(rec.state.clone()),
                Some(_) => {
                    jobs = self.inner.terminal_cv.wait(jobs).unwrap_or_else(|e| e.into_inner());
                }
            }
        }
    }

    /// Take a terminal job's output (waits for termination first).
    /// `None` if the id is unknown, the job failed before producing
    /// output, or the output was already taken.
    pub fn take_output(&self, id: JobId) -> Option<JobOutput> {
        self.wait(id)?;
        lock_recover(&self.inner.jobs).get_mut(&id.0).and_then(|r| r.output.take())
    }

    /// Block until every submitted job is terminal (the queue is fully
    /// drained and no worker is mid-job).
    pub fn drain(&self) {
        let mut open = lock_recover(&self.inner.open);
        while *open > 0 {
            open = self.inner.terminal_cv.wait(open).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Number of jobs not yet terminal (queued + running).
    pub fn open_jobs(&self) -> usize {
        *lock_recover(&self.inner.open)
    }

    /// Drain the queue, then stop and join the workers. Called by `Drop`
    /// too; explicit use gives a panic-free join point.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.drain();
        // Closing the channel makes every idle worker's recv() fail.
        self.submit_tx = None;
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn worker_loop(inner: &Inner, shared_rx: &Mutex<Receiver<QueuedJob>>) {
    loop {
        // Standard shared-receiver pool: one idle worker at a time blocks
        // in recv() holding the lock; execution happens outside it.
        let job = match lock_recover(shared_rx).recv() {
            Ok(job) => job,
            Err(_) => return, // queue closed: shutdown
        };
        run_one(inner, job);
    }
}

/// Execute one job with the panic boundary. Every exit path below calls
/// `set_terminal` exactly once, so `drain()` always observes the open
/// count returning to zero — including for sabotaged jobs.
fn run_one(inner: &Inner, job: QueuedJob) {
    let id = JobId(job.id);
    // Cancelled while still queued: never start.
    if job.cancel.load(Ordering::Relaxed) {
        inner.events.send(JobEvent::Cancelled { id });
        inner.set_terminal(job.id, JobState::Cancelled, None);
        return;
    }
    if let Some(rec) = lock_recover(&inner.jobs).get_mut(&job.id) {
        rec.state = JobState::Running;
    }
    inner.events.send(JobEvent::Started { id });

    let events = inner.events.clone();
    let cancel = Arc::clone(&job.cancel);
    let work = job.work;
    let outcome = catch_unwind(AssertUnwindSafe(move || match work {
        JobWork::Solve(spec) => execute_solve(id, *spec, cancel, events),
        JobWork::Custom(f) => {
            let jc = JobCtx { id, cancel, events };
            let out = f(&jc)?;
            if jc.cancelled() {
                Ok(Terminal::Cancelled(None))
            } else {
                Ok(Terminal::Done { output: JobOutput::Custom(out), makespan: 0.0 })
            }
        }
    }));
    match outcome {
        Ok(Ok(Terminal::Done { output, makespan })) => {
            inner.events.send(JobEvent::Done { id, makespan });
            inner.set_terminal(job.id, JobState::Done, Some(output));
        }
        Ok(Ok(Terminal::Cancelled(output))) => {
            inner.events.send(JobEvent::Cancelled { id });
            inner.set_terminal(job.id, JobState::Cancelled, output);
        }
        Ok(Err(error)) => {
            inner.events.send(JobEvent::Failed { id, error: error.clone() });
            inner.set_terminal(job.id, JobState::Failed(error), None);
        }
        Err(payload) => {
            let error = panic_message(payload.as_ref());
            inner.events.send(JobEvent::Failed { id, error: error.clone() });
            inner.set_terminal(job.id, JobState::Failed(error), None);
        }
    }
}

enum Terminal {
    Done { output: JobOutput, makespan: f64 },
    Cancelled(Option<JobOutput>),
}

/// Run the fault-tolerant solve of `spec` as this job's body.
fn execute_solve(
    id: JobId,
    spec: SolveSpec,
    cancel: Arc<AtomicBool>,
    events: EventTx,
) -> Result<Terminal, String> {
    let SolveSpec { cfg, seed, stall, sim_workers } = spec;
    let world = cfg.world_size(cfg.layout_world_size());
    // Chain rather than replace a caller-supplied observer: it runs
    // first, synchronously on rank 0's fiber (tests use this to flip the
    // cancel token at an exact protocol point).
    let prior = cfg.observer.clone();
    let observer = AppObserver::new(move |ev| {
        if let Some(p) = &prior {
            p.emit(ev);
        }
        match ev {
            AppEvent::Epoch { step, steps } => {
                events.send(JobEvent::Progress { id, step, steps });
            }
            AppEvent::Recovered { step, ranks } => {
                events.send(JobEvent::Recovered { id, step, ranks });
            }
        }
    });
    let cfg = cfg.with_cancel(cancel).with_observer(observer);
    let mut rc = RunConfig::local(world).with_seed(seed).with_workers(sim_workers.max(1));
    if let Some(s) = stall {
        rc.stall_timeout = s;
    }
    let report = run(rc, move |ctx| run_app(&cfg, ctx));
    if !report.app_errors.is_empty() {
        return Err(report.app_errors.join("; "));
    }
    if report.get_f64(keys::CANCELLED).is_some() {
        return Ok(Terminal::Cancelled(Some(JobOutput::Solve(report))));
    }
    let makespan = report.makespan;
    Ok(Terminal::Done { output: JobOutput::Solve(report), makespan })
}

/// Render a `catch_unwind` payload as text (panics carry `&str` or
/// `String` in practice).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}
