//! The daemon's job table and multi-job scheduler.
//!
//! Submitted campaigns become *jobs*: numbered entries that move through
//! `queued → running → done | failed | cancelled` (with a `running →
//! queued` back-edge for preempted jobs).  The scheduler keeps up to
//! [`SchedulerConfig::max_concurrent_jobs`] jobs running at once, each on
//! its own [`CampaignEngine`] with an equal share of the global
//! worker-thread budget, so campaign jobs never oversubscribe
//! [`SchedulerConfig::threads`] no matter how many are in flight.
//! (Synchronous `poff` queries run on their connection handlers outside
//! these slots, each capped at one job's thread budget.)
//!
//! # Priorities and preemption
//!
//! Every job carries a [`Priority`] (`low`/`normal`/`high`); dispatch is
//! strict priority order, FIFO within a class.  When a job outranking
//! every free slot arrives, the scheduler requests *cooperative
//! preemption* of the lowest-priority running job: the victim's engine
//! stops at the next trial boundary, its completed cells stay in the
//! table, and the job is resubmitted at the head of its class queue.  On
//! resume those cells are seeded back into the engine
//! ([`CampaignEngine::with_seed_cells`]), so the finished job is
//! bit-identical to one that was never preempted.
//!
//! # Quotas
//!
//! Per-client quotas bound how much of the daemon one client id can
//! consume: at most [`TableLimits::max_queued_per_client`] queued jobs
//! (excess submissions are rejected with a `quota_exceeded` error) and at
//! most [`TableLimits::max_running_per_client`] running jobs (excess jobs
//! simply wait in the queue while other clients' jobs overtake them).
//! Jobs the scheduler itself requeued after a preemption do not count
//! against the queued quota.
//!
//! # Result retention
//!
//! A job keeps its completed cells once, as decoded [`CellResult`]s; each
//! `stream` frame and the `result` document ([`checkpoint::result_document`]
//! over the header captured at submit) are encoded from them on fetch, so
//! the two cannot disagree.  Terminal jobs keep their cells for later
//! fetches, up to [`TableLimits::result_cap_bytes`] across all jobs, each
//! counting the bytes of its result document (done jobs) and cell frames.
//! Above the cap, the least-recently-fetched entries are evicted; fetching
//! an evicted result reports `result_evicted` (the job's status survives
//! eviction and restarts, only the cells are dropped).
//!
//! The only durable copy of a cell is its journal record (with
//! `--state-dir`), kept while the job is live: it seeds the job when a
//! restarted daemon resumes it.  A finished job's cells are not kept
//! across restarts, so its result reads `result_evicted` afterwards.

use crate::journal::Progress;
use sfi_campaign::engine::restorable_cells;
use sfi_campaign::journal::Journal;
use sfi_campaign::{checkpoint, CampaignEngine, CampaignSpec, CellResult};
use sfi_core::json::Json;
use sfi_core::CaseStudy;
use sfi_obs::clock;
use sfi_obs::Event;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};

/// Scheduling priority of a job: strict priority dispatch, FIFO within a
/// class.  A queued `high` job may cooperatively preempt a running `low`
/// or `normal` job (and a queued `normal` job a running `low` one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Runs when nothing more urgent is queued; preemptible by both
    /// `normal` and `high` jobs.
    Low = 0,
    /// The default class; preemptible by `high` jobs.
    Normal = 1,
    /// Dispatches before everything else and is never preempted.
    High = 2,
}

impl Priority {
    /// The wire name of the class (`"low"` / `"normal"` / `"high"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }

    /// Parses a wire name; `None` for anything else.
    pub fn parse(s: &str) -> Option<Priority> {
        match s {
            "low" => Some(Priority::Low),
            "normal" => Some(Priority::Normal),
            "high" => Some(Priority::High),
            _ => None,
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the scheduler queue (fresh, or requeued after a
    /// preemption).
    Queued,
    /// Currently executing on an engine.
    Running,
    /// Finished; the full result is available (unless evicted).
    Done,
    /// Aborted by an execution error.
    Failed,
    /// Cancelled before completion.
    Cancelled,
}

impl JobState {
    /// The wire name of the state.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Parses a wire name; `None` for anything else.
    pub fn parse(s: &str) -> Option<JobState> {
        match s {
            "queued" => Some(JobState::Queued),
            "running" => Some(JobState::Running),
            "done" => Some(JobState::Done),
            "failed" => Some(JobState::Failed),
            "cancelled" => Some(JobState::Cancelled),
            _ => None,
        }
    }

    /// Whether the job can no longer make progress.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

/// A point-in-time snapshot of one job, as reported to clients.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// The job id.
    pub job: u64,
    /// Current lifecycle state.
    pub state: JobState,
    /// The job's scheduling priority.
    pub priority: Priority,
    /// The submitting client id.
    pub client: String,
    /// Cells completed so far.
    pub completed_cells: usize,
    /// Total cells of the campaign.
    pub total_cells: usize,
    /// Trials actually simulated, accumulated across preemptions (final
    /// once the job is terminal).
    pub executed_trials: usize,
    /// How many times the job was preempted by a higher-priority one.
    pub preemptions: u64,
    /// Whether the finished result was evicted by the retention cap.
    pub evicted: bool,
    /// Failure message, if the job failed.
    pub error: Option<String>,
}

impl JobStatus {
    /// Whether the job can no longer make progress.
    pub fn is_terminal(&self) -> bool {
        self.state.is_terminal()
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitRejected {
    /// The client already has the maximum number of queued jobs.
    QuotaExceeded(String),
    /// The daemon is shutting down.
    ShuttingDown,
    /// The daemon is draining: running jobs finish but new submissions
    /// are refused.
    Draining,
}

struct JobEntry {
    /// The instantiated campaign (validated and built once, at submit).
    spec: CampaignSpec,
    /// The spec's [`checkpoint::header`], captured at submit: the result
    /// document is built on fetch, after the spec is dropped.
    header: Json,
    state: JobState,
    priority: Priority,
    client: String,
    /// The status counters; they outlive eviction and, through the
    /// journal's `done` record, restarts.
    progress: Progress,
    /// Completed cells, completion order (dropped on eviction): stream
    /// frames, result document and resume seeds.
    cells: Vec<CellResult>,
    error: Option<String>,
    /// Cooperative stop flag of the current (or next) run; replaced with
    /// a fresh flag when the job is requeued after a preemption.
    cancel: Arc<AtomicBool>,
    /// The client asked for cancellation.  A daemon stop also raises
    /// `cancel` but not this flag, so the job stays live in the journal.
    user_cancelled: bool,
    /// The scheduler asked the running job to yield its slot.
    preempt_requested: bool,
    preemptions: u64,
    /// Retained result size (serialized result document + cell frames).
    retained_bytes: usize,
    evicted: bool,
    /// LRU stamp, bumped on every result/stream fetch.
    last_access: u64,
    /// Monotonic time ([`clock::now_micros`]) the job was (re)enqueued;
    /// feeds the wait-latency histogram at dispatch.  Monotonic by
    /// construction, so the latency can never go negative under
    /// wall-clock adjustment.
    enqueued_us: u64,
    /// Monotonic time the current running segment started.
    started_us: u64,
    /// Running time accumulated across preemption segments, observed
    /// into the run-latency histogram once the job is terminal.
    run_accum_us: u64,
    /// Monotonic time of the original client submission; anchors the
    /// `job_lifetime` trace span (preemptions reset `enqueued_us`, never
    /// this).
    submitted_us: u64,
}

impl JobEntry {
    /// A freshly queued job of `spec`, (re)submitted at `now`.
    fn queued(spec: CampaignSpec, priority: Priority, client: &str, now: u64) -> JobEntry {
        JobEntry {
            header: checkpoint::header(&spec),
            progress: Progress {
                total_cells: spec.cells().len(),
                ..Progress::default()
            },
            spec,
            state: JobState::Queued,
            priority,
            client: client.to_string(),
            cells: Vec::new(),
            error: None,
            cancel: Arc::new(AtomicBool::new(false)),
            user_cancelled: false,
            preempt_requested: false,
            preemptions: 0,
            retained_bytes: 0,
            evicted: false,
            last_access: 0,
            enqueued_us: now,
            started_us: 0,
            run_accum_us: 0,
            submitted_us: now,
        }
    }

    fn status(&self, job: u64) -> JobStatus {
        JobStatus {
            job,
            state: self.state,
            priority: self.priority,
            client: self.client.clone(),
            completed_cells: self.progress.completed_cells,
            total_cells: self.progress.total_cells,
            executed_trials: self.progress.executed_trials,
            preemptions: self.preemptions,
            evicted: self.evicted,
            error: self.error.clone(),
        }
    }
}

/// Per-client and retention limits enforced by the table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableLimits {
    /// Max jobs one client id may have queued (`None` = unlimited);
    /// submissions beyond it are rejected.
    pub max_queued_per_client: Option<usize>,
    /// Max jobs one client id may have running (`None` = unlimited);
    /// excess jobs wait in the queue.
    pub max_running_per_client: Option<usize>,
    /// Byte cap on retained result JSON across all jobs (`None` =
    /// retain everything until shutdown).
    pub result_cap_bytes: Option<usize>,
}

struct Inner {
    next_id: u64,
    stop: bool,
    /// Draining: running jobs finish, queued jobs stay queued (the
    /// journal carries them to the next daemon generation), and new
    /// submissions are refused with [`SubmitRejected::Draining`].
    draining: bool,
    /// One FIFO queue per priority class, indexed by `Priority::index`.
    queues: [VecDeque<u64>; 3],
    running: Vec<u64>,
    jobs: BTreeMap<u64, JobEntry>,
    /// Total retained result bytes across all jobs.
    retained_total: usize,
    /// Monotonic clock for LRU stamps.
    lru_clock: u64,
    /// Cumulative preemptions since daemon start (reported by `pong`).
    preemptions_total: u64,
    /// Cumulative result evictions since daemon start.
    evictions_total: u64,
    /// Idempotency-key deduplication: `client\0key` → assigned job id.
    idempotency_keys: BTreeMap<String, u64>,
}

/// The deduplication map key of one `(client, idempotency key)` pair.
fn idempotency_map_key(client: &str, key: &str) -> String {
    format!("{client}\u{0}{key}")
}

impl Inner {
    /// Queued jobs counted against `client`'s quota.  Jobs the scheduler
    /// itself requeued after a preemption (`preemptions > 0`) are
    /// excluded: the client did not put them back in the queue, so they
    /// must not consume its submission quota.
    fn queued_count(&self, client: &str) -> usize {
        self.jobs
            .values()
            .filter(|e| e.state == JobState::Queued && e.preemptions == 0 && e.client == client)
            .count()
    }

    fn running_count(&self, client: &str) -> usize {
        self.running
            .iter()
            .filter(|id| self.jobs.get(id).is_some_and(|e| e.client == client))
            .count()
    }

    fn touch(&mut self, id: u64) {
        self.lru_clock += 1;
        let stamp = self.lru_clock;
        if let Some(entry) = self.jobs.get_mut(&id) {
            entry.last_access = stamp;
        }
    }

    /// Evicts least-recently-fetched finished results until the retained
    /// total fits under the cap again.
    fn evict_to_cap(&mut self, cap: usize) {
        while self.retained_total > cap {
            let victim = self
                .jobs
                .iter()
                .filter(|(_, e)| e.retained_bytes > 0)
                .min_by_key(|(_, e)| e.last_access)
                .map(|(&id, _)| id);
            let Some(id) = victim else { break };
            let entry = self.jobs.get_mut(&id).expect("victim exists");
            let released = entry.retained_bytes;
            self.retained_total -= released;
            entry.retained_bytes = 0;
            entry.cells = Vec::new();
            entry.evicted = true;
            self.evictions_total += 1;
            let metrics = sfi_obs::metrics();
            metrics.sched_evictions.inc();
            metrics.sched_evicted_bytes.add(released as u64);
            sfi_obs::events().push(
                Event::new("result_evicted")
                    .job(id)
                    .field("bytes", released),
            );
        }
    }

    /// Mirrors the queue depths and running-slot count into the metric
    /// gauges; called after every queue/running mutation.
    fn sync_gauges(&self) {
        let metrics = sfi_obs::metrics();
        for (gauge, queue) in metrics.sched_queue_depth.iter().zip(&self.queues) {
            gauge.set(queue.len() as i64);
        }
        metrics.sched_running.set(self.running.len() as i64);
    }
}

/// Cumulative scheduler totals since daemon start (reported by `pong`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableTotals {
    /// Cooperative preemptions performed.
    pub preemptions: u64,
    /// Retained results evicted under the byte cap.
    pub evictions: u64,
}

/// The shared job table: priority queues, per-job state, streaming
/// buffers and the result-retention accounting.
pub struct JobTable {
    inner: Mutex<Inner>,
    limits: TableLimits,
    /// The durable job journal, when the daemon runs with `--state-dir`.
    journal: Option<Arc<Journal>>,
    /// The study fingerprint (decimal) every journaled `submit` names.
    study: String,
    /// Wakes the scheduler when a job is queued, a slot frees up or the
    /// daemon stops.
    scheduler_wake: Condvar,
    /// Wakes streaming handlers when any job gains a cell or changes
    /// state.
    update: Condvar,
}

/// What a streaming handler gets when it asks for the next cell of a job.
#[derive(Debug, Clone, PartialEq)]
pub enum NextCell {
    /// A completed cell, encoded with the campaign cell codec.
    Cell(Json),
    /// No more cells will arrive; the job ended in this state.
    End(JobState),
    /// The job finished but its retained cells were evicted.
    Evicted,
    /// The job id is unknown.
    Unknown,
}

/// What a result fetch yields.
#[derive(Debug, Clone, PartialEq)]
pub enum ResultFetch {
    /// The finished job's full result document.
    Document(Json),
    /// The job finished but its result was evicted by the retention cap.
    Evicted,
    /// The job is not in the `done` state (still in flight, failed or
    /// cancelled), so there is no result document.
    NotReady,
    /// The job id is unknown.
    Unknown,
}

impl Default for JobTable {
    fn default() -> Self {
        JobTable::new()
    }
}

impl JobTable {
    /// An empty table with no quotas and unlimited result retention.
    pub fn new() -> Self {
        JobTable::with_limits(TableLimits::default())
    }

    /// An empty table enforcing `limits`.
    pub fn with_limits(limits: TableLimits) -> Self {
        JobTable {
            inner: Mutex::new(Inner {
                next_id: 1,
                stop: false,
                draining: false,
                queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                running: Vec::new(),
                jobs: BTreeMap::new(),
                retained_total: 0,
                lru_clock: 0,
                preemptions_total: 0,
                evictions_total: 0,
                idempotency_keys: BTreeMap::new(),
            }),
            limits,
            journal: None,
            study: String::new(),
            scheduler_wake: Condvar::new(),
            update: Condvar::new(),
        }
    }

    /// Attaches the durable job journal: every submit/start/cell/
    /// preempt/done transition is appended (and fsync'd) from now on, and
    /// every `submit` record names `study`, the fingerprint of the
    /// characterized study the daemon serves.
    pub fn with_journal(mut self, journal: Arc<Journal>, study: u64) -> Self {
        self.journal = Some(journal);
        self.study = study.to_string();
        self
    }

    /// The attached journal, if the daemon runs with `--state-dir`.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_deref()
    }

    /// The limits this table enforces.
    pub fn limits(&self) -> TableLimits {
        self.limits
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Enqueues an instantiated campaign for `client` at `priority`;
    /// returns the job id, or the typed rejection if the client's queued
    /// quota is exhausted or the daemon is stopping/draining.
    pub fn submit(
        &self,
        spec: CampaignSpec,
        priority: Priority,
        client: &str,
    ) -> Result<u64, SubmitRejected> {
        self.submit_keyed(spec, priority, client, None, None)
    }

    /// [`submit`](Self::submit) with durability extras: `idempotency_key`
    /// deduplicates retried submissions (the same `(client, key)` pair
    /// returns the already-assigned job id), and `spec_doc` is the wire
    /// campaign definition recorded in the journal so a restarted daemon
    /// can re-instantiate the job.
    pub fn submit_keyed(
        &self,
        spec: CampaignSpec,
        priority: Priority,
        client: &str,
        idempotency_key: Option<&str>,
        spec_doc: Option<&Json>,
    ) -> Result<u64, SubmitRejected> {
        let mut inner = self.lock();
        if inner.stop {
            return Err(SubmitRejected::ShuttingDown);
        }
        if inner.draining {
            return Err(SubmitRejected::Draining);
        }
        if let Some(key) = idempotency_key {
            if let Some(&existing) = inner
                .idempotency_keys
                .get(&idempotency_map_key(client, key))
            {
                return Ok(existing);
            }
        }
        if let Some(max) = self.limits.max_queued_per_client {
            if inner.queued_count(client) >= max {
                sfi_obs::metrics().sched_quota_rejections.inc();
                return Err(SubmitRejected::QuotaExceeded(format!(
                    "client '{client}' already has {max} queued job(s)"
                )));
            }
        }
        let id = inner.next_id;
        inner.next_id += 1;
        if let Some(key) = idempotency_key {
            inner
                .idempotency_keys
                .insert(idempotency_map_key(client, key), id);
        }
        let total_cells = spec.cells().len();
        let entry = JobEntry::queued(spec, priority, client, clock::now_micros());
        inner.jobs.insert(id, entry);
        inner.queues[priority.index()].push_back(id);
        sfi_obs::metrics().sched_jobs_submitted.inc();
        inner.sync_gauges();
        sfi_obs::events().push(
            Event::new("job_submitted")
                .job(id)
                .field("priority", priority.as_str())
                .field("client", client)
                .field("cells", total_cells),
        );
        // Journaled under the table lock so the submit record always
        // precedes the job's cell records (the scheduler cannot dispatch
        // the job until the lock is released).
        if let (Some(journal), Some(doc)) = (&self.journal, spec_doc) {
            let record = crate::journal::submit_record(id, doc, priority, client, idempotency_key);
            journal.append_best_effort(&crate::journal::with_study(record, &self.study));
        }
        self.scheduler_wake.notify_all();
        Ok(id)
    }

    /// The status of job `id`, if it exists.
    pub fn status(&self, id: u64) -> Option<JobStatus> {
        self.lock().jobs.get(&id).map(|entry| entry.status(id))
    }

    /// The result document of job `id`, built from its retained cells.
    pub fn result(&self, id: u64) -> ResultFetch {
        let mut inner = self.lock();
        let Some(entry) = inner.jobs.get(&id) else {
            return ResultFetch::Unknown;
        };
        if entry.evicted {
            return ResultFetch::Evicted;
        }
        if entry.state != JobState::Done {
            return ResultFetch::NotReady;
        }
        let (header, cells) = (entry.header.clone(), entry.cells.clone());
        inner.touch(id);
        drop(inner);
        ResultFetch::Document(checkpoint::result_document(&header, &cells))
    }

    /// Requests cancellation of job `id`.  Queued jobs are cancelled
    /// immediately, and journaled as such before this returns; running
    /// jobs stop at the next trial boundary.  Returns `false` for unknown
    /// ids.
    pub fn cancel(&self, id: u64) -> bool {
        let mut inner = self.lock();
        let Some(entry) = inner.jobs.get_mut(&id) else {
            return false;
        };
        entry.user_cancelled = true;
        entry.cancel.store(true, Ordering::SeqCst);
        let was_queued = entry.state == JobState::Queued;
        let progress = entry.progress;
        if was_queued {
            entry.state = JobState::Cancelled;
            entry.spec = CampaignSpec::new(String::new(), 0);
            for queue in &mut inner.queues {
                queue.retain(|&q| q != id);
            }
            inner.sync_gauges();
            sfi_obs::events().push(Event::new("job_cancelled").job(id).field("state", "queued"));
        }
        self.update.notify_all();
        drop(inner);
        // A queued job never reaches `run_job`, which journals the end of
        // every job it runs: without this record a restart requeues it.
        if let (true, Some(journal)) = (was_queued, self.journal()) {
            let record =
                crate::journal::done_record(id, JobState::Cancelled.as_str(), None, progress);
            journal.append_best_effort(&record);
        }
        true
    }

    /// Initiates daemon shutdown: cancels everything and wakes the
    /// scheduler so it can drain its runners and exit.  Nothing of this
    /// is journaled: queued and interrupted jobs stay live in the journal,
    /// exactly as after a crash, so a successor daemon resumes them.
    pub fn stop(&self) {
        let mut inner = self.lock();
        inner.stop = true;
        for queue in &mut inner.queues {
            queue.clear();
        }
        for entry in inner.jobs.values_mut() {
            entry.cancel.store(true, Ordering::SeqCst);
            if entry.state == JobState::Queued {
                entry.state = JobState::Cancelled;
                entry.spec = CampaignSpec::new(String::new(), 0);
            }
        }
        inner.sync_gauges();
        self.scheduler_wake.notify_all();
        self.update.notify_all();
    }

    /// Whether [`JobTable::stop`] was called.
    pub fn stopped(&self) -> bool {
        self.lock().stop
    }

    /// Begins draining: new submissions are refused with
    /// [`SubmitRejected::Draining`], queued jobs stay queued (the journal
    /// carries them to the next daemon generation), and running jobs
    /// finish normally.  Idempotent.
    pub fn drain(&self) {
        let mut inner = self.lock();
        if !inner.draining {
            inner.draining = true;
            sfi_obs::metrics().draining.set(1);
            sfi_obs::events().push(
                Event::new("drain_begin")
                    .field("running", inner.running.len())
                    .field(
                        "queued",
                        inner.queues.iter().map(VecDeque::len).sum::<usize>(),
                    ),
            );
        }
        self.scheduler_wake.notify_all();
        self.update.notify_all();
    }

    /// Whether [`JobTable::drain`] was called.
    pub fn draining(&self) -> bool {
        self.lock().draining
    }

    /// Blocks until no job is running or `timeout` elapses; returns
    /// whether the running set drained in time.  (Queued jobs do not
    /// count: a draining daemon leaves them for its successor.)
    pub fn wait_drained(&self, timeout: std::time::Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut inner = self.lock();
        loop {
            if inner.running.is_empty() {
                return true;
            }
            let Some(remaining) = deadline.checked_duration_since(std::time::Instant::now()) else {
                return false;
            };
            inner = self
                .update
                .wait_timeout(inner, remaining)
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .0;
        }
    }

    /// Restores one journaled job during restart recovery.
    ///
    /// A live job is re-admitted by `admit` and comes back queued with its
    /// [restorable](restorable_cells) journaled cells as resume seeds; one
    /// `admit` refuses comes back failed with the reason and no cells.  A
    /// terminal job keeps its journaled counters but no cells.  Both
    /// report `evicted`.
    pub fn restore(
        &self,
        job: crate::journal::RecoveredJob,
        admit: impl FnOnce(&crate::journal::RecoveredJob) -> Result<CampaignSpec, String>,
    ) {
        let mut inner = self.lock();
        let id = job.id;
        inner.next_id = inner.next_id.max(id + 1);
        if let Some(key) = &job.idempotency_key {
            inner
                .idempotency_keys
                .insert(idempotency_map_key(&job.client, key), id);
        }
        let terminal = job.terminal.as_ref().and_then(|(state, error)| {
            JobState::parse(state)
                .filter(|s| s.is_terminal())
                .map(|s| (s, error.clone()))
        });
        let now = clock::now_micros();
        // A job that will not run here: its status, no cells.
        let retired = |state, error, progress| JobEntry {
            state,
            error,
            progress,
            evicted: true,
            ..JobEntry::queued(
                CampaignSpec::new(String::new(), 0),
                job.priority,
                &job.client,
                now,
            )
        };
        let mut entry = match terminal {
            Some((state, error)) => retired(state, error, job.progress),
            None => match admit(&job) {
                Ok(spec) => {
                    let mut entry = JobEntry::queued(spec, job.priority, &job.client, now);
                    let decoded = job.cells.iter().filter_map(checkpoint::cell_from_json);
                    entry.cells = restorable_cells(&entry.spec, decoded);
                    entry.progress.completed_cells = entry.cells.len();
                    entry.progress.executed_trials =
                        entry.cells.iter().map(|c| c.trials.len()).sum();
                    inner.queues[job.priority.index()].push_back(id);
                    entry
                }
                // Keep the id and status, but fail the job instead of
                // wedging the restart or resuming foreign cells.
                Err(reason) => {
                    let error = format!("journal recovery could not re-admit the job: {reason}");
                    retired(JobState::Failed, Some(error), Progress::default())
                }
            },
        };
        entry.preemptions = job.preemptions;
        let (state, cells) = (entry.state, entry.progress.completed_cells);
        inner.jobs.insert(id, entry);
        inner.sync_gauges();
        sfi_obs::metrics().recovered_jobs.inc();
        sfi_obs::events().push(
            Event::new("job_recovered")
                .job(id)
                .field("state", state.as_str())
                .field("cells", cells)
                .field("resumed", if job.started { "yes" } else { "no" }),
        );
        self.scheduler_wake.notify_all();
        self.update.notify_all();
    }

    /// Number of jobs ever submitted.
    pub fn job_count(&self) -> usize {
        self.lock().jobs.len()
    }

    /// Number of jobs currently in the `running` state.
    pub fn running_count(&self) -> usize {
        self.lock().running.len()
    }

    /// Total retained result bytes across all finished jobs.
    pub fn retained_bytes(&self) -> usize {
        self.lock().retained_total
    }

    /// Cumulative preemption/eviction totals since the table was created.
    pub fn totals(&self) -> TableTotals {
        let inner = self.lock();
        TableTotals {
            preemptions: inner.preemptions_total,
            evictions: inner.evictions_total,
        }
    }

    /// Blocks until cell `index` of job `id` exists (returning it), the
    /// job reaches a terminal state with no more cells (returning
    /// [`NextCell::End`]), or the id turns out unknown or evicted.
    pub fn next_cell(&self, id: u64, index: usize) -> NextCell {
        let mut inner = self.lock();
        loop {
            let Some(entry) = inner.jobs.get(&id) else {
                return NextCell::Unknown;
            };
            if entry.evicted {
                return NextCell::Evicted;
            }
            if let Some(cell) = entry.cells.get(index) {
                let cell = cell.clone();
                inner.touch(id);
                drop(inner);
                return NextCell::Cell(checkpoint::cell_to_json(&cell));
            }
            if entry.state.is_terminal() {
                return NextCell::End(entry.state);
            }
            inner = self
                .update
                .wait(inner)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Blocks until job `id` reaches a terminal state; returns its final
    /// status (`None` for unknown ids).
    pub fn wait_terminal(&self, id: u64) -> Option<JobStatus> {
        let mut inner = self.lock();
        loop {
            let entry = inner.jobs.get(&id)?;
            if entry.state.is_terminal() {
                return Some(entry.status(id));
            }
            inner = self
                .update
                .wait(inner)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

/// Execution configuration of the scheduler.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Global worker-thread budget shared by all concurrently running
    /// jobs (`None` = all CPUs).
    pub threads: Option<usize>,
    /// Maximum number of jobs running at once; each gets an equal share
    /// of the thread budget (at least one thread).
    pub max_concurrent_jobs: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            threads: None,
            max_concurrent_jobs: 1,
        }
    }
}

impl SchedulerConfig {
    /// The engine thread budget of one running job: the global budget
    /// split evenly across the concurrency slots, never below one thread
    /// per job.
    pub fn threads_per_job(&self) -> usize {
        let total = self.threads.unwrap_or_else(|| {
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        (total / self.max_concurrent_jobs.max(1)).max(1)
    }
}

/// What the scheduler decided to do after scanning the queues.
enum Dispatch {
    /// Start this job (already marked running; spec/cancel/seeds copied
    /// out under the lock).
    Start {
        id: u64,
        spec: CampaignSpec,
        cancel: Arc<AtomicBool>,
        seeds: Vec<CellResult>,
    },
    /// Nothing startable right now.
    Wait,
    /// Stop flag observed and all runners have drained.
    Exit,
}

/// Scans the queues (priority order, FIFO within a class, skipping
/// clients at their running quota) and either claims a job for a free
/// slot or requests preemption of a lower-priority running job.
fn pick(inner: &mut Inner, limits: &TableLimits, max_jobs: usize) -> Dispatch {
    if inner.draining {
        // A draining daemon starts nothing new: running jobs finish,
        // queued jobs wait for the next daemon generation (the journal
        // carries them across the restart).
        return Dispatch::Wait;
    }
    for class in (0..inner.queues.len()).rev() {
        let candidate = inner.queues[class].iter().copied().position(|id| {
            let Some(entry) = inner.jobs.get(&id) else {
                return false;
            };
            match limits.max_running_per_client {
                Some(max) => inner.running_count(&entry.client) < max,
                None => true,
            }
        });
        let Some(position) = candidate else { continue };
        if inner.running.len() < max_jobs {
            let id = inner.queues[class]
                .remove(position)
                .expect("position valid");
            let entry = inner.jobs.get_mut(&id).expect("queued job exists");
            entry.state = JobState::Running;
            let now = clock::now_micros();
            entry.started_us = now;
            let wait_s = clock::seconds_between(entry.enqueued_us, now);
            sfi_obs::metrics().job_wait_seconds.observe(wait_s);
            // The queued segment just ended: record it retroactively with
            // its true start so the trace shows the wait, then dispatch.
            sfi_obs::span::record_span(
                "job_queued",
                "sched",
                entry.enqueued_us,
                now.saturating_sub(entry.enqueued_us),
                0,
                Some(id),
                vec![(
                    "priority",
                    sfi_obs::FieldValue::Str(entry.priority.as_str().to_string()),
                )],
            );
            sfi_obs::span::flush_thread();
            sfi_obs::events().push(
                Event::new("job_started")
                    .job(id)
                    .field("priority", entry.priority.as_str())
                    .field("wait_s", wait_s),
            );
            let spec = entry.spec.clone();
            let cancel = entry.cancel.clone();
            // Completed cells of a preempted or journaled earlier attempt
            // seed the resumed engine.
            let seeds = entry.cells.clone();
            inner.running.push(id);
            inner.sync_gauges();
            return Dispatch::Start {
                id,
                spec,
                cancel,
                seeds,
            };
        }
        // All slots busy: ask the lowest-priority running job below this
        // class to yield (lowest class first; the most recently started
        // job within that class, so older work is preserved).  At most
        // one preemption is kept in flight at a time — the waiting job
        // needs exactly one slot, and once the victim yields, the freed
        // slot re-runs this scan, which may preempt again if more urgent
        // work is still waiting.
        let preemption_pending = inner
            .running
            .iter()
            .any(|id| inner.jobs.get(id).is_some_and(|e| e.preempt_requested));
        if !preemption_pending {
            let victim = inner
                .running
                .iter()
                .copied()
                .filter(|id| {
                    inner
                        .jobs
                        .get(id)
                        .is_some_and(|e| (e.priority.index()) < class && !e.user_cancelled)
                })
                .min_by_key(|id| {
                    let e = &inner.jobs[id];
                    (e.priority.index(), std::cmp::Reverse(*id))
                });
            if let Some(id) = victim {
                let entry = inner.jobs.get_mut(&id).expect("running job exists");
                entry.preempt_requested = true;
                entry.cancel.store(true, Ordering::SeqCst);
            }
        }
        // Either a preemption is now in flight (the freed slot will wake
        // the scheduler) or the queue head must wait for a natural
        // completion.
        return Dispatch::Wait;
    }
    Dispatch::Wait
}

/// Runs the scheduler loop until [`JobTable::stop`] is observed and all
/// runners have drained.
///
/// Each dispatched job executes on its own runner thread with its own
/// thread-budgeted [`CampaignEngine`]; per-cell results stream into the
/// table through the engine's progress hook.  A panicking campaign
/// (unexpected for validated wire specs, but defense-in-depth) marks the
/// job failed instead of taking the daemon down.
pub fn run_scheduler(study: Arc<CaseStudy>, table: Arc<JobTable>, config: SchedulerConfig) {
    let mut runners: Vec<JoinHandle<()>> = Vec::new();
    loop {
        // Reap finished runners (dropping the handle detaches the already
        // exited thread) so a long-lived daemon does not accumulate one
        // joinable zombie thread per completed job.
        runners.retain(|handle| !handle.is_finished());
        let dispatch = {
            let mut inner = table.lock();
            loop {
                if inner.stop && inner.running.is_empty() {
                    break Dispatch::Exit;
                }
                if !inner.stop {
                    match pick(&mut inner, &table.limits, config.max_concurrent_jobs.max(1)) {
                        Dispatch::Wait => {}
                        dispatch => break dispatch,
                    }
                }
                inner = table
                    .scheduler_wake
                    .wait(inner)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };
        match dispatch {
            Dispatch::Exit => {
                for handle in runners {
                    let _ = handle.join();
                }
                return;
            }
            Dispatch::Start {
                id,
                spec,
                cancel,
                seeds,
            } => {
                if let Some(journal) = table.journal() {
                    journal.append_best_effort(&crate::journal::start_record(id));
                }
                table.update.notify_all();
                let study = study.clone();
                let table = table.clone();
                let config = config.clone();
                runners.push(thread::spawn(move || {
                    run_job(&study, &table, &config, id, spec, cancel, seeds)
                }));
            }
            Dispatch::Wait => unreachable!("the wait loop never breaks with Wait"),
        }
    }
}

/// Executes one dispatched job on the calling (runner) thread.
fn run_job(
    study: &CaseStudy,
    table: &Arc<JobTable>,
    config: &SchedulerConfig,
    id: u64,
    spec: CampaignSpec,
    cancel: Arc<AtomicBool>,
    seeds: Vec<CellResult>,
) {
    let engine = CampaignEngine::new()
        .with_threads(config.threads_per_job())
        .with_cancel(cancel)
        .with_seed_cells(seeds)
        .with_trace_job(id);
    let hook_table = table.clone();
    let engine = engine.with_progress(Arc::new(move |cell: &CellResult| {
        // The seeds are this job's own cells, re-announced on resume: the
        // job already holds, streamed and journaled them.
        if cell.from_checkpoint {
            return;
        }
        {
            let mut inner = hook_table.lock();
            if let Some(entry) = inner.jobs.get_mut(&id) {
                entry.cells.push(cell.clone());
                entry.progress.completed_cells += 1;
            }
            hook_table.update.notify_all();
        }
        // Encoding and the fsync happen outside the table lock: a slow
        // disk must not stall status/stream handlers.
        if let Some(journal) = hook_table.journal() {
            let doc = checkpoint::cell_to_json(cell);
            journal.append_best_effort(&crate::journal::cell_record(id, &doc));
        }
    }));

    let outcome = panic::catch_unwind(AssertUnwindSafe(|| engine.run(study, &spec)));
    let mut inner = table.lock();
    inner.running.retain(|&r| r != id);
    let stop = inner.stop;
    let mut requeue_class = None;
    let mut retained = 0usize;
    let mut preempted = false;
    let mut terminal: Option<(JobState, Option<String>, Progress)> = None;
    if let Some(entry) = inner.jobs.get_mut(&id) {
        let cell_bytes = |entry: &JobEntry| {
            entry
                .cells
                .iter()
                .map(|cell| checkpoint::cell_to_json(cell).to_string().len())
                .sum::<usize>()
        };
        let now = clock::now_micros();
        entry.run_accum_us += now.saturating_sub(entry.started_us);
        // One `job_running` span per dispatch segment; a preempted job
        // accumulates several of these between its `job_queued` spans.
        sfi_obs::span::record_span(
            "job_running",
            "sched",
            entry.started_us,
            now.saturating_sub(entry.started_us),
            0,
            Some(id),
            Vec::new(),
        );
        match outcome {
            Ok(result) => {
                entry.progress.executed_trials += result.metrics.executed_trials;
                if result.cancelled {
                    if entry.preempt_requested && !entry.user_cancelled && !stop {
                        // Preempted: keep the completed cells as the
                        // resume seed and return to the head of the
                        // class queue with a fresh stop flag.
                        entry.preempt_requested = false;
                        entry.preemptions += 1;
                        entry.state = JobState::Queued;
                        entry.cancel = Arc::new(AtomicBool::new(false));
                        entry.enqueued_us = now;
                        requeue_class = Some(entry.priority.index());
                        preempted = true;
                        sfi_obs::metrics().sched_preemptions.inc();
                        sfi_obs::events().push(
                            Event::new("job_preempted")
                                .job(id)
                                .field("completed_cells", entry.cells.len()),
                        );
                    } else {
                        entry.state = JobState::Cancelled;
                        retained = cell_bytes(entry);
                    }
                } else {
                    entry.preempt_requested = false;
                    entry.state = JobState::Done;
                    let doc = checkpoint::result_document(&entry.header, &entry.cells).to_string();
                    debug_assert_eq!(doc, result.to_json(&spec).to_string());
                    retained = doc.len() + cell_bytes(entry);
                }
            }
            Err(payload) => {
                let message = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "campaign panicked".into());
                entry.state = JobState::Failed;
                entry.error = Some(message);
                retained = cell_bytes(entry);
            }
        }
        if entry.state.is_terminal() {
            // A cancel the client did not ask for is a daemon stop: the
            // job stays live in the journal for the successor.
            if entry.state != JobState::Cancelled || entry.user_cancelled {
                terminal = Some((entry.state, entry.error.clone(), entry.progress));
            }
            // A terminal job never runs again: drop the instantiated spec
            // (benchmark tables hold kernel input data), and account every
            // byte it still retains — the streamed cells of cancelled and
            // failed jobs count toward the cap just like done results.
            entry.spec = CampaignSpec::new(String::new(), 0);
            entry.retained_bytes = retained;
            let run_s = entry.run_accum_us as f64 / 1e6;
            sfi_obs::metrics().job_run_seconds.observe(run_s);
            sfi_obs::span::record_span(
                "job_lifetime",
                "sched",
                entry.submitted_us,
                now.saturating_sub(entry.submitted_us),
                0,
                Some(id),
                vec![
                    (
                        "state",
                        sfi_obs::FieldValue::Str(entry.state.as_str().to_string()),
                    ),
                    ("preemptions", sfi_obs::FieldValue::U64(entry.preemptions)),
                    (
                        "trials",
                        sfi_obs::FieldValue::U64(entry.progress.executed_trials as u64),
                    ),
                ],
            );
            sfi_obs::events().push(
                Event::new(match entry.state {
                    JobState::Done => "job_done",
                    JobState::Failed => "job_failed",
                    _ => "job_cancelled",
                })
                .job(id)
                .field("run_s", run_s)
                .field("trials", entry.progress.executed_trials),
            );
        }
    }
    if preempted {
        inner.preemptions_total += 1;
    }
    if let Some(class) = requeue_class {
        inner.queues[class].push_front(id);
    }
    if retained > 0 {
        inner.retained_total += retained;
        inner.touch(id);
        if let Some(cap) = table.limits.result_cap_bytes {
            inner.evict_to_cap(cap);
        }
    }
    inner.sync_gauges();
    drop(inner);
    // Journal the terminal transition (fsync outside the table lock).
    if let Some(journal) = table.journal() {
        if preempted {
            journal.append_best_effort(&crate::journal::preempt_record(id));
        }
        if let Some((state, error, progress)) = &terminal {
            journal.append_best_effort(&crate::journal::done_record(
                id,
                state.as_str(),
                error.as_deref(),
                *progress,
            ));
        }
    }
    // Runner threads are short-lived; hand their span buffer to the
    // global store now instead of waiting for thread teardown.
    sfi_obs::span::flush_thread();
    table.scheduler_wake.notify_all();
    table.update.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{BenchmarkDef, BudgetDef, CampaignDef, CellDef};
    use sfi_campaign::CellStats;
    use sfi_core::{FaultModel, TrialResult};

    fn tiny_spec(name: &str) -> CampaignSpec {
        let mut def = CampaignDef::new(name, 5);
        def.add_benchmark(BenchmarkDef::Median { values: 5, seed: 1 });
        def.instantiate().expect("tiny campaign instantiates")
    }

    /// A campaign of one fault-free two-trial cell, and a cell it can
    /// produce.
    fn one_cell_spec(name: &str) -> (CampaignSpec, CellResult) {
        let mut def = CampaignDef::new(name, 5);
        let median = def.add_benchmark(BenchmarkDef::Median { values: 5, seed: 1 });
        def.cells.push(CellDef {
            benchmark: median,
            model: FaultModel::None,
            freq_mhz: 500.0,
            vdd: 0.7,
            noise_sigma_mv: 0.0,
            budget: BudgetDef::fixed(2),
        });
        let trials = vec![
            TrialResult {
                finished: true,
                correct: true,
                output_error: 0.0,
                fi_rate_per_kcycle: 0.0,
                cycles: 40,
            };
            2
        ];
        let cell = CellResult {
            cell: 0,
            stats: CellStats::from_trials(&trials),
            trials,
            stopped_early: false,
            from_checkpoint: false,
        };
        (
            def.instantiate().expect("one-cell campaign instantiates"),
            cell,
        )
    }

    fn submit(table: &JobTable, name: &str, priority: Priority, client: &str) -> u64 {
        table
            .submit(tiny_spec(name), priority, client)
            .expect("submits")
    }

    #[test]
    fn queued_jobs_cancel_immediately() {
        let table = JobTable::new();
        let id = submit(&table, "a", Priority::Normal, "test");
        assert_eq!(table.status(id).unwrap().state, JobState::Queued);
        assert!(table.cancel(id));
        assert_eq!(table.status(id).unwrap().state, JobState::Cancelled);
        assert_eq!(table.next_cell(id, 0), NextCell::End(JobState::Cancelled));
        assert!(!table.cancel(999), "unknown ids report false");
        assert_eq!(table.next_cell(999, 0), NextCell::Unknown);
        assert_eq!(table.result(999), ResultFetch::Unknown);
        assert_eq!(table.result(id), ResultFetch::NotReady);
    }

    #[test]
    fn stop_cancels_the_queue_and_rejects_submissions() {
        let table = JobTable::new();
        let a = submit(&table, "a", Priority::Low, "test");
        let b = submit(&table, "b", Priority::High, "test");
        assert_eq!(table.job_count(), 2);
        table.stop();
        assert!(table.stopped());
        assert_eq!(table.status(a).unwrap().state, JobState::Cancelled);
        assert_eq!(table.status(b).unwrap().state, JobState::Cancelled);
        assert_eq!(
            table.submit(tiny_spec("c"), Priority::Normal, "test"),
            Err(SubmitRejected::ShuttingDown)
        );
    }

    #[test]
    fn drain_refuses_submits_but_keeps_the_queue() {
        let table = JobTable::new();
        let queued = submit(&table, "a", Priority::Normal, "test");
        table.drain();
        assert!(table.draining());
        assert_eq!(
            table.submit(tiny_spec("b"), Priority::Normal, "test"),
            Err(SubmitRejected::Draining)
        );
        // Unlike stop, drain leaves queued jobs queued: the journal
        // carries them to the next daemon generation.
        assert_eq!(table.status(queued).unwrap().state, JobState::Queued);
        // And the scheduler must not dispatch anything while draining.
        let mut inner = table.lock();
        assert!(matches!(pick(&mut inner, &table.limits, 1), Dispatch::Wait));
        drop(inner);
        // Nothing is running, so the drain completes immediately.
        assert!(table.wait_drained(std::time::Duration::from_millis(10)));
    }

    #[test]
    fn wait_drained_times_out_while_a_job_runs() {
        let table = JobTable::new();
        let id = submit(&table, "a", Priority::Normal, "test");
        {
            let mut inner = table.lock();
            let Dispatch::Start { .. } = pick(&mut inner, &table.limits, 1) else {
                panic!("dispatches");
            };
            assert_eq!(inner.running, vec![id]);
        }
        table.drain();
        assert!(!table.wait_drained(std::time::Duration::from_millis(20)));
    }

    #[test]
    fn idempotency_keys_deduplicate_resubmissions_per_client() {
        let table = JobTable::new();
        let first = table
            .submit_keyed(tiny_spec("a"), Priority::Normal, "alice", Some("k1"), None)
            .expect("submits");
        let retried = table
            .submit_keyed(tiny_spec("a"), Priority::Normal, "alice", Some("k1"), None)
            .expect("deduplicates");
        assert_eq!(first, retried, "the retry returns the original job id");
        assert_eq!(table.job_count(), 1);
        // Different client, same key: a distinct job.
        let other = table
            .submit_keyed(tiny_spec("a"), Priority::Normal, "bob", Some("k1"), None)
            .expect("submits");
        assert_ne!(first, other);
        // Different key, same client: a distinct job.
        let fresh = table
            .submit_keyed(tiny_spec("a"), Priority::Normal, "alice", Some("k2"), None)
            .expect("submits");
        assert_ne!(first, fresh);
    }

    #[test]
    fn restore_requeues_live_jobs_and_preserves_terminal_status() {
        use crate::journal::RecoveredJob;
        let table = JobTable::new();
        let spec_doc = Json::obj([("name", Json::Str("r".into()))]);
        let (spec, cell) = one_cell_spec("r");
        let cell = checkpoint::cell_to_json(&cell);
        table.restore(
            RecoveredJob {
                id: 5,
                spec: spec_doc.clone(),
                priority: Priority::High,
                client: "alice".into(),
                idempotency_key: Some("k1".into()),
                study: None,
                // A replayed duplicate: the restore filter keeps the first.
                cells: vec![cell.clone(), cell],
                preemptions: 2,
                started: true,
                terminal: None,
                progress: Progress::default(),
            },
            |_| Ok(spec),
        );
        table.restore(
            RecoveredJob {
                id: 7,
                spec: spec_doc,
                priority: Priority::Normal,
                client: "bob".into(),
                idempotency_key: None,
                study: None,
                cells: Vec::new(),
                preemptions: 0,
                started: true,
                terminal: Some(("failed".into(), Some("boom".into()))),
                progress: Progress::default(),
            },
            |_| unreachable!("a terminal job is not re-admitted"),
        );

        let live = table.status(5).expect("restored");
        assert_eq!(live.state, JobState::Queued);
        assert_eq!(live.priority, Priority::High);
        assert_eq!(live.completed_cells, 1);
        assert_eq!(live.executed_trials, 2, "derived from journaled trials");
        assert_eq!(live.preemptions, 2);

        let dead = table.status(7).expect("restored");
        assert_eq!(dead.state, JobState::Failed);
        assert_eq!(dead.error.as_deref(), Some("boom"));
        assert!(dead.evicted, "journals carry transitions, not result bytes");

        // Fresh ids continue above the restored ones, and the restored
        // idempotency key still deduplicates.
        let next = submit(&table, "n", Priority::Normal, "carol");
        assert_eq!(next, 8);
        let deduped = table
            .submit_keyed(tiny_spec("a"), Priority::Normal, "alice", Some("k1"), None)
            .expect("deduplicates");
        assert_eq!(deduped, 5);
    }

    #[test]
    fn queued_quota_rejects_the_excess_submission_per_client() {
        let table = JobTable::with_limits(TableLimits {
            max_queued_per_client: Some(2),
            ..TableLimits::default()
        });
        submit(&table, "a1", Priority::Normal, "alice");
        submit(&table, "a2", Priority::Normal, "alice");
        let rejected = table.submit(tiny_spec("a3"), Priority::Normal, "alice");
        assert!(
            matches!(rejected, Err(SubmitRejected::QuotaExceeded(_))),
            "{rejected:?}"
        );
        // Quotas are per client id: bob still has room.
        submit(&table, "b1", Priority::Normal, "bob");
        // Cancelling frees alice's quota.
        let a1 = 1;
        assert!(table.cancel(a1));
        submit(&table, "a3", Priority::Normal, "alice");
    }

    #[test]
    fn priority_classes_dispatch_strictly_and_fifo_within() {
        let table = JobTable::new();
        let low = submit(&table, "low", Priority::Low, "t");
        let normal1 = submit(&table, "n1", Priority::Normal, "t");
        let high = submit(&table, "high", Priority::High, "t");
        let normal2 = submit(&table, "n2", Priority::Normal, "t");
        let mut order = Vec::new();
        let mut inner = table.lock();
        for _ in 0..4 {
            match pick(&mut inner, &table.limits, 1) {
                Dispatch::Start { id, .. } => {
                    order.push(id);
                    inner.running.clear();
                }
                _ => panic!("a queued job must dispatch"),
            }
        }
        assert_eq!(order, vec![high, normal1, normal2, low]);
    }

    #[test]
    fn pick_requests_preemption_of_the_lowest_priority_running_job() {
        let table = JobTable::new();
        let low = submit(&table, "low", Priority::Low, "t");
        {
            // Start the low job in the single slot while it is alone.
            let mut inner = table.lock();
            let Dispatch::Start { id, .. } = pick(&mut inner, &table.limits, 1) else {
                panic!("low dispatches into the free slot");
            };
            assert_eq!(id, low);
        }
        let high = submit(&table, "high", Priority::High, "t");
        let mut inner = table.lock();
        // The high job cannot start; the low job is asked to yield.
        assert!(matches!(pick(&mut inner, &table.limits, 1), Dispatch::Wait));
        let entry = &inner.jobs[&low];
        assert!(entry.preempt_requested);
        assert!(entry.cancel.load(Ordering::SeqCst));
        // High stays queued until the victim actually yields.
        assert_eq!(inner.jobs[&high].state, JobState::Queued);
    }

    #[test]
    fn at_most_one_preemption_is_in_flight() {
        let table = JobTable::new();
        let low_a = submit(&table, "low-a", Priority::Low, "t");
        let low_b = submit(&table, "low-b", Priority::Low, "t");
        let mut inner = table.lock();
        for expected in [low_a, low_b] {
            let Dispatch::Start { id, .. } = pick(&mut inner, &table.limits, 2) else {
                panic!("low job dispatches into a free slot");
            };
            assert_eq!(id, expected);
        }
        drop(inner);
        submit(&table, "high", Priority::High, "t");
        let mut inner = table.lock();
        // First scan marks exactly one victim (the most recent low job)…
        assert!(matches!(pick(&mut inner, &table.limits, 2), Dispatch::Wait));
        assert!(inner.jobs[&low_b].preempt_requested);
        assert!(!inner.jobs[&low_a].preempt_requested);
        // …and re-scanning while that preemption is still in flight must
        // not cancel the second low job too: one waiting job needs one
        // slot.
        assert!(matches!(pick(&mut inner, &table.limits, 2), Dispatch::Wait));
        assert!(
            !inner.jobs[&low_a].preempt_requested,
            "a second victim must not be preempted for the same waiter"
        );
    }

    #[test]
    fn preempted_requeues_do_not_consume_the_queued_quota() {
        let table = JobTable::with_limits(TableLimits {
            max_queued_per_client: Some(1),
            ..TableLimits::default()
        });
        submit(&table, "fresh", Priority::Normal, "alice");
        {
            // Simulate a scheduler requeue after a preemption: queued
            // state, but preemptions > 0.
            let mut inner = table.lock();
            let entry = inner.jobs.get_mut(&1).expect("job exists");
            entry.preemptions = 1;
        }
        // The requeued job is invisible to the quota: alice can still
        // submit her one genuinely queued job.
        submit(&table, "next", Priority::Normal, "alice");
        // A second fresh submission is over quota as usual.
        assert!(matches!(
            table.submit(tiny_spec("over"), Priority::Normal, "alice"),
            Err(SubmitRejected::QuotaExceeded(_))
        ));
    }

    #[test]
    fn eviction_is_lru_and_survivable() {
        let table = JobTable::with_limits(TableLimits {
            result_cap_bytes: Some(250),
            ..TableLimits::default()
        });
        let mut inner = table.lock();
        for id in [1u64, 2, 3] {
            let entry = JobEntry {
                state: JobState::Done,
                retained_bytes: 100,
                last_access: id,
                ..JobEntry::queued(tiny_spec("x"), Priority::Normal, "t", 0)
            };
            inner.jobs.insert(id, entry);
            inner.retained_total += 100;
        }
        inner.lru_clock = 3;
        // Job 1 is oldest, but a fetch refreshes it: 2 becomes the LRU.
        inner.touch(1);
        inner.evict_to_cap(250);
        assert!(inner.jobs[&2].evicted, "LRU entry evicted first");
        assert!(!inner.jobs[&1].evicted);
        assert!(!inner.jobs[&3].evicted);
        assert_eq!(inner.retained_total, 200);
        drop(inner);
        assert_eq!(table.result(2), ResultFetch::Evicted);
        assert_eq!(table.next_cell(2, 0), NextCell::Evicted);
        assert!(table.status(2).unwrap().evicted);
    }
}
