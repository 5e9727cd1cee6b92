//! The parallel campaign executor: a work-stealing pool of std threads
//! over a sharded job queue, with deterministic per-trial seeding and
//! batched adaptive sampling.
//!
//! # Determinism
//!
//! A trial's outcome depends only on `(campaign seed, cell index, trial
//! index)` — workers never share mutable simulation state, and the
//! per-trial injector seed comes from
//! [`sfi_core::experiment::derive_trial_seed`].  Adaptive stopping
//! decisions are taken only at batch boundaries over the complete set of
//! finished trials of a cell, and the monitored statistics are binomial
//! counts (order-independent), so the *set* of trials a cell runs is the
//! same for any thread count.  Final per-cell aggregates are folded in
//! trial-index order.  Together this makes campaign results bit-identical
//! whether they ran on one thread or sixteen.
//!
//! # Work stealing
//!
//! Jobs (one per trial) live in one queue shard per worker.  A worker
//! drains its own shard and steals from the others when empty; batches
//! scheduled by adaptive refinement are pushed round-robin across shards
//! so late-campaign work stays balanced.

use crate::spec::{CampaignSpec, CellSpec, TrialBudget};
use crate::stats::CellStats;
use sfi_core::experiment::{derive_trial_seed, golden_cycles, watchdog_cycles, TrialContext};
use sfi_core::{CaseStudy, ExperimentSummary, TrialResult};
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// A per-cell completion callback (see [`CampaignEngine::with_progress`]).
///
/// Invoked from worker threads, so it must be `Send + Sync`; keep it
/// cheap — the engine does not buffer around a slow observer.
pub type ProgressHook = Arc<dyn Fn(&CellResult) + Send + Sync>;

/// Result of one campaign cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Index of the cell in the spec.
    pub cell: usize,
    /// The individual trials, in trial-index order.
    pub trials: Vec<TrialResult>,
    /// Streaming aggregates over `trials`.
    pub stats: CellStats,
    /// Whether the adaptive stop rule cut the cell off before
    /// `max_trials`.
    pub stopped_early: bool,
    /// Whether this cell was restored from a checkpoint instead of being
    /// simulated.
    pub from_checkpoint: bool,
}

impl CellResult {
    /// The cell's trials as a core [`ExperimentSummary`].
    pub fn summary(&self) -> ExperimentSummary {
        ExperimentSummary {
            trials: self.trials.clone(),
        }
    }
}

/// Execution observations of one campaign run (used to verify that trials
/// actually ran concurrently).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineMetrics {
    /// Number of distinct worker threads that executed at least one trial.
    pub worker_threads_used: usize,
    /// Maximum number of trials observed simultaneously in flight.
    pub max_concurrent_trials: usize,
    /// Trials actually simulated (excludes seeded cells).
    pub executed_trials: usize,
}

/// The outcome of a campaign: one [`CellResult`] per spec cell plus run
/// metrics.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// The campaign name (copied from the spec).
    pub name: String,
    /// The campaign master seed (copied from the spec).
    pub seed: u64,
    /// The spec fingerprint the result belongs to.
    pub fingerprint: u64,
    /// Per-cell results, index-aligned with the spec's cells.
    pub cells: Vec<CellResult>,
    /// Execution observations.
    pub metrics: EngineMetrics,
    /// Whether the run was cut short by a cancellation flag
    /// ([`CampaignEngine::with_cancel`]).  Cancelled runs may contain
    /// cells with fewer trials than their budget (including none).
    pub cancelled: bool,
}

impl CampaignResult {
    /// The summary of cell `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn summary(&self, index: usize) -> ExperimentSummary {
        self.cells[index].summary()
    }

    /// Converts a contiguous range of cells (as returned by
    /// `CampaignSpec::add_frequency_sweep`) into core sweep points.
    pub fn sweep_points(
        &self,
        spec: &CampaignSpec,
        cells: std::ops::Range<usize>,
    ) -> Vec<sfi_core::SweepPoint> {
        cells
            .map(|i| sfi_core::SweepPoint {
                freq_mhz: spec.cells()[i].point.freq_mhz(),
                summary: self.summary(i),
            })
            .collect()
    }
}

/// The parallel campaign executor.
#[derive(Clone)]
pub struct CampaignEngine {
    threads: usize,
    progress: Option<ProgressHook>,
    cancel: Option<Arc<AtomicBool>>,
    seed_cells: Vec<CellResult>,
    trace_job: Option<u64>,
}

impl std::fmt::Debug for CampaignEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignEngine")
            .field("threads", &self.threads)
            .field("progress", &self.progress.as_ref().map(|_| "<hook>"))
            .field("cancel", &self.cancel)
            .field("seed_cells", &self.seed_cells.len())
            .field("trace_job", &self.trace_job)
            .finish()
    }
}

impl Default for CampaignEngine {
    fn default() -> Self {
        CampaignEngine::new()
    }
}

impl CampaignEngine {
    /// An engine using all available CPUs.
    pub fn new() -> Self {
        let threads = thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        CampaignEngine {
            threads,
            progress: None,
            cancel: None,
            seed_cells: Vec::new(),
            trace_job: None,
        }
    }

    /// A single-threaded engine (the sequential reference).
    pub fn sequential() -> Self {
        CampaignEngine {
            threads: 1,
            progress: None,
            cancel: None,
            seed_cells: Vec::new(),
            trace_job: None,
        }
    }

    /// Sets the number of worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "at least one worker thread is required");
        self.threads = threads;
        self
    }

    /// Installs a per-cell completion callback, the streaming and
    /// checkpointing hook: it fires once for every seeded cell (before any
    /// simulation starts, in cell order, marked
    /// [`CellResult::from_checkpoint`]) and once for every cell that
    /// finishes simulating (in completion order, from whichever worker
    /// thread finished it).
    pub fn with_progress(mut self, hook: ProgressHook) -> Self {
        self.progress = Some(hook);
        self
    }

    /// Installs a cooperative cancellation flag: once `flag` becomes
    /// `true`, workers stop picking up trials and [`CampaignEngine::run`]
    /// returns early with [`CampaignResult::cancelled`] set.  Cells that
    /// had not finished keep the contiguous prefix of trials that did
    /// complete (possibly none); partially completed cells are *not*
    /// reported to the progress hook.
    ///
    /// Cancellation composes with resuming: every *completed* cell already
    /// reached the progress hook the moment it finished, so a cancelled run
    /// has lost nothing but its in-flight cells, and feeding the completed
    /// ones back through [`CampaignEngine::with_seed_cells`] resumes from
    /// there — how the serve scheduler restarts preempted jobs.
    pub fn with_cancel(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Seeds the run with already-completed cells: the engine's one
    /// resume path.
    ///
    /// Feed in the completed cells of an earlier attempt — a cancelled
    /// (e.g. preempted) run, a replayed serve journal, or a checkpoint
    /// log opened with [`crate::checkpoint::open_log`] — and only the
    /// remaining cells are simulated.  Because per-trial seeds are a pure
    /// function of `(campaign seed, cell index, trial index)`, the
    /// completed campaign is bit-identical to one that was never
    /// interrupted.
    ///
    /// Seeds pass [`restorable_cells`]: a cell out of range or one the
    /// engine could not have produced under its budget is ignored and
    /// simulated afresh, and for a repeated index the first seed wins.
    /// Seeded cells fire the progress hook marked
    /// [`CellResult::from_checkpoint`].
    pub fn with_seed_cells(mut self, cells: Vec<CellResult>) -> Self {
        self.seed_cells = cells;
        self
    }

    /// Attributes every span and counter record this run emits to a serve
    /// job id, so per-job trace filters (`sfi-client trace --job`) pick up
    /// the engine's cell and trial spans.
    pub fn with_trace_job(mut self, job: u64) -> Self {
        self.trace_job = Some(job);
        self
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs the campaign: seeded cells are restored, every other cell is
    /// simulated.
    ///
    /// # Panics
    ///
    /// Panics if the spec references a characterization voltage the study
    /// does not provide, or if a worker thread panics.
    pub fn run(&self, study: &CaseStudy, spec: &CampaignSpec) -> CampaignResult {
        let fingerprint = spec.fingerprint();
        let mut campaign_span = sfi_obs::Span::begin("campaign", "engine")
            .arg("name", spec.name.as_str())
            .arg("cells", spec.cells().len() as u64)
            .arg("threads", self.threads as u64);
        if let Some(job) = self.trace_job {
            campaign_span = campaign_span.job(job);
        }
        let mut restored: Vec<Option<CellResult>> = vec![None; spec.cells().len()];
        for cell in restorable_cells(spec, self.seed_cells.iter().cloned()) {
            let index = cell.cell;
            restored[index] = Some(CellResult {
                from_checkpoint: true,
                ..cell
            });
        }

        // Seeded cells are announced up front, so a streaming observer
        // sees every cell of the campaign exactly once.
        if let Some(hook) = &self.progress {
            for cell in restored.iter().flatten() {
                hook(cell);
            }
        }

        // The expensive characterization inside `study` is shared by
        // reference; the only per-benchmark precomputation is the golden
        // (fault-free) cycle count that sizes the watchdog, done once per
        // benchmark instead of once per cell or — as the old
        // `run_experiment` did — once per sweep point.
        let watchdogs: Vec<u64> = spec
            .benchmarks()
            .iter()
            .map(|b| watchdog_cycles(golden_cycles(b.as_ref())))
            .collect();

        let shared = Shared::new(
            study,
            spec,
            &watchdogs,
            restored,
            self.progress.clone(),
            self.cancel.clone(),
            campaign_span.id(),
            self.trace_job,
        );

        if shared.open_cells.load(Ordering::SeqCst) > 0 {
            thread::scope(|scope| {
                for worker in 0..self.threads {
                    let shared = &shared;
                    scope.spawn(move || worker_loop(worker, shared));
                }
            });
        }

        // A panic on a worker thread aborts the campaign; re-raise it here
        // instead of returning partial results (or, worse, hanging the
        // surviving workers).
        if let Some(payload) = shared
            .panic_payload
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .take()
        {
            panic::resume_unwind(payload);
        }

        let mut cells = Vec::with_capacity(spec.cells().len());
        for (index, state) in shared.cells.into_iter().enumerate() {
            let state = state
                .into_inner()
                .expect("no worker holds a cell lock any more");
            cells.push(state.into_result(index));
        }
        let workers_used = shared
            .worker_used
            .iter()
            .filter(|w| w.load(Ordering::Relaxed) > 0)
            .count();
        let cancelled = self
            .cancel
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::SeqCst));
        campaign_span.set_arg(
            "executed_trials",
            shared.executed_trials.load(Ordering::SeqCst) as u64,
        );
        campaign_span.finish();
        sfi_obs::span::flush_thread();
        CampaignResult {
            name: spec.name.clone(),
            seed: spec.seed,
            fingerprint,
            cells,
            metrics: EngineMetrics {
                worker_threads_used: workers_used,
                max_concurrent_trials: shared.max_in_flight.load(Ordering::SeqCst),
                executed_trials: shared.executed_trials.load(Ordering::SeqCst),
            },
            cancelled,
        }
    }
}

/// The one filter every restored cell passes: the cells the engine could
/// have produced for `spec` (index in range, `restorable` under the
/// cell's budget), the first per index, in input order.
pub fn restorable_cells(
    spec: &CampaignSpec,
    cells: impl IntoIterator<Item = CellResult>,
) -> Vec<CellResult> {
    let mut seen = vec![false; spec.cells().len()];
    cells
        .into_iter()
        .filter(|cell| {
            let fits = spec
                .cells()
                .get(cell.cell)
                .is_some_and(|c| restorable(cell, &c.budget));
            fits && !std::mem::replace(&mut seen[cell.cell], true)
        })
        .collect()
}

/// Whether the engine could have produced `cell` under `budget`.
///
/// A cell runs `min(min_trials, max_trials)` trials first, then grows by
/// `batch` until its stop rule holds or it reaches `max_trials`; it
/// stopped early exactly when it ended below `max_trials`, and without a
/// stop rule it always runs `max_trials`.  Anything else — a truncated or
/// hand-edited record, a seed for another budget — is not trusted.
fn restorable(cell: &CellResult, budget: &TrialBudget) -> bool {
    let len = cell.trials.len();
    let max = budget.max_trials;
    let initial = budget.min_trials.min(max);
    if len < initial || len > max || cell.stopped_early != (len < max) {
        return false;
    }
    len == max || (budget.stop.is_some() && (len - initial).is_multiple_of(budget.batch))
}

/// One (cell, trial) work unit.
#[derive(Debug, Clone, Copy)]
struct Job {
    cell: u32,
    trial: u32,
}

/// Mutable per-cell execution state.
///
/// `finished` / `correct` are running binomial counters kept in sync with
/// `completed`, so adaptive stop decisions are O(1) instead of re-folding
/// the trial prefix at every batch boundary.
#[derive(Debug)]
struct CellState {
    scheduled: usize,
    completed: usize,
    finished: usize,
    correct: usize,
    results: Vec<Option<TrialResult>>,
    done: bool,
    stopped_early: bool,
    from_checkpoint: bool,
    /// When the cell's first trials were scheduled, for the cell span.
    started_us: u64,
}

impl CellState {
    fn into_result(self, index: usize) -> CellResult {
        // Finished cells have a full prefix of `completed` results.  A
        // cancelled run can leave holes (trials complete out of order), so
        // keep only the contiguous prefix — the part that is well-defined
        // regardless of which in-flight trials made it.
        let trials: Vec<TrialResult> = self
            .results
            .into_iter()
            .take(self.completed)
            .map_while(|t| t)
            .collect();
        let stats = CellStats::from_trials(&trials);
        CellResult {
            cell: index,
            trials,
            stats,
            stopped_early: self.stopped_early,
            from_checkpoint: self.from_checkpoint,
        }
    }
}

struct Shared<'a> {
    study: &'a CaseStudy,
    spec: &'a CampaignSpec,
    watchdogs: &'a [u64],
    queues: Vec<Mutex<VecDeque<Job>>>,
    cells: Vec<Mutex<CellState>>,
    /// Cells not yet finished; workers exit when this reaches zero.
    open_cells: AtomicUsize,
    /// Round-robin cursor for spreading new batches across shards.
    next_shard: AtomicUsize,
    in_flight: AtomicUsize,
    max_in_flight: AtomicUsize,
    executed_trials: AtomicUsize,
    worker_used: Vec<AtomicUsize>,
    /// Set when a worker panics; all workers drain out and the panic is
    /// re-raised on the caller thread.
    aborted: AtomicBool,
    panic_payload: Mutex<Option<Box<dyn Any + Send>>>,
    /// Per-cell completion observer, if any.
    progress: Option<ProgressHook>,
    /// External cancellation flag, if any.
    cancel: Option<Arc<AtomicBool>>,
    /// Span id of the enclosing campaign span (parent of cell/trial spans).
    trace_parent: u64,
    /// Serve job id the run's trace records are attributed to, if any.
    trace_job: Option<u64>,
}

impl<'a> Shared<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        study: &'a CaseStudy,
        spec: &'a CampaignSpec,
        watchdogs: &'a [u64],
        restored: Vec<Option<CellResult>>,
        progress: Option<ProgressHook>,
        cancel: Option<Arc<AtomicBool>>,
        trace_parent: u64,
        trace_job: Option<u64>,
    ) -> Self {
        let mut cells = Vec::with_capacity(spec.cells().len());
        let mut open = 0usize;
        let mut initial_jobs: Vec<Job> = Vec::new();
        for (index, cell_spec) in spec.cells().iter().enumerate() {
            let max = cell_spec.budget.max_trials;
            match restored.get(index).and_then(|r| r.as_ref()) {
                Some(result) => {
                    let mut results: Vec<Option<TrialResult>> =
                        result.trials.iter().copied().map(Some).collect();
                    let completed = results.len();
                    results.resize(max.max(completed), None);
                    cells.push(Mutex::new(CellState {
                        scheduled: completed,
                        completed,
                        finished: result.stats.finished() as usize,
                        correct: result.stats.correct() as usize,
                        results,
                        done: true,
                        stopped_early: result.stopped_early,
                        from_checkpoint: true,
                        started_us: 0,
                    }));
                }
                None => {
                    let initial = cell_spec.budget.min_trials.min(max);
                    for trial in 0..initial {
                        initial_jobs.push(Job {
                            cell: index as u32,
                            trial: trial as u32,
                        });
                    }
                    cells.push(Mutex::new(CellState {
                        scheduled: initial,
                        completed: 0,
                        finished: 0,
                        correct: 0,
                        results: vec![None; max],
                        done: false,
                        stopped_early: false,
                        from_checkpoint: false,
                        started_us: sfi_obs::clock::now_micros(),
                    }));
                    open += 1;
                }
            }
        }
        Shared {
            study,
            spec,
            watchdogs,
            queues: Vec::new(),
            cells,
            open_cells: AtomicUsize::new(open),
            next_shard: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            max_in_flight: AtomicUsize::new(0),
            executed_trials: AtomicUsize::new(0),
            worker_used: Vec::new(),
            aborted: AtomicBool::new(false),
            panic_payload: Mutex::new(None),
            progress,
            cancel,
            trace_parent,
            trace_job,
        }
        .with_initial_jobs(initial_jobs)
    }

    /// Whether the external cancellation flag is raised.
    fn is_cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::SeqCst))
    }

    fn with_initial_jobs(mut self, jobs: Vec<Job>) -> Self {
        let workers = thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .max(16);
        // One shard per possible worker; sized generously so any
        // `with_threads` choice gets its own shard.
        self.queues = (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        self.worker_used = (0..workers).map(|_| AtomicUsize::new(0)).collect();
        self.push_jobs(jobs);
        self
    }

    /// Distributes jobs round-robin over the queue shards.
    fn push_jobs(&self, jobs: Vec<Job>) {
        for job in jobs {
            let shard = self.next_shard.fetch_add(1, Ordering::Relaxed) % self.queues.len();
            self.queues[shard]
                .lock()
                .expect("queue lock")
                .push_back(job);
        }
    }

    /// Pops a job: the worker's own shard first, then steals round-robin.
    fn pop_job(&self, worker: usize) -> Option<Job> {
        let shards = self.queues.len();
        let own = worker % shards;
        if let Some(job) = self.queues[own].lock().expect("queue lock").pop_front() {
            return Some(job);
        }
        for offset in 1..shards {
            let victim = (own + offset) % shards;
            // Steal from the back to reduce contention with the owner.
            if let Some(job) = self.queues[victim].lock().expect("queue lock").pop_back() {
                sfi_obs::metrics().engine_steals.inc();
                return Some(job);
            }
        }
        None
    }
}

fn worker_loop(worker: usize, shared: &Shared<'_>) {
    // Per-worker scratch: the simulated core is recycled per benchmark and
    // the injector per (model, operating point), so steady-state trial
    // execution allocates nothing.  Trials stay bit-identical — a recycled
    // core/injector is indistinguishable from a fresh one — so results do
    // not depend on which worker ran which trial.
    let mut context = TrialContext::new();
    // Utilization accounting: thread-local micros, flushed to the sharded
    // registry counters and a per-worker trace counter event at exit.
    let mut busy_us = 0u64;
    let mut idle_us = 0u64;
    let mut steal_us = 0u64;
    loop {
        if shared.aborted.load(Ordering::SeqCst) || shared.is_cancelled() {
            break;
        }
        let pop_start = sfi_obs::clock::now_micros();
        let popped = shared.pop_job(worker);
        let pop_end = sfi_obs::clock::now_micros();
        steal_us += pop_end.saturating_sub(pop_start);
        match popped {
            Some(job) => {
                // A panicking trial (e.g. a model asking for an
                // uncharacterized voltage) must abort the whole campaign,
                // not leave the other workers waiting forever for the
                // panicked cell to finish.
                let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                    execute_job(worker, shared, &mut context, job)
                }));
                busy_us += sfi_obs::clock::now_micros().saturating_sub(pop_end);
                if let Err(payload) = outcome {
                    let mut slot = shared
                        .panic_payload
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                    slot.get_or_insert(payload);
                    shared.aborted.store(true, Ordering::SeqCst);
                    break;
                }
            }
            None => {
                if shared.open_cells.load(Ordering::SeqCst) == 0 {
                    break;
                }
                // Open cells but no runnable job: another worker is
                // finishing a batch that may schedule more. Back off
                // briefly instead of spinning on the queue locks.
                thread::sleep(Duration::from_micros(50));
                idle_us += sfi_obs::clock::now_micros().saturating_sub(pop_end);
            }
        }
    }
    let metrics = sfi_obs::metrics();
    metrics.engine_worker_busy_us.add(busy_us);
    metrics.engine_worker_idle_us.add(idle_us);
    metrics.engine_worker_steal_us.add(steal_us);
    sfi_obs::span::record_counter(
        "worker_utilization",
        shared.trace_job,
        vec![
            ("busy_us", busy_us as f64),
            ("idle_us", idle_us as f64),
            ("steal_us", steal_us as f64),
        ],
    );
    sfi_obs::span::flush_thread();
}

fn execute_job(worker: usize, shared: &Shared<'_>, context: &mut TrialContext, job: Job) {
    let cell_index = job.cell as usize;
    let cell_spec = shared.spec.cells()[cell_index];
    let benchmark = shared.spec.benchmarks()[cell_spec.benchmark].as_ref();
    let max_cycles = shared.watchdogs[cell_spec.benchmark];
    let trial_seed = derive_trial_seed(shared.spec.seed, cell_index as u64, job.trial as u64);

    let in_flight = shared.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
    shared.max_in_flight.fetch_max(in_flight, Ordering::SeqCst);
    shared.worker_used[worker % shared.worker_used.len()].fetch_add(1, Ordering::Relaxed);

    let trial_start = sfi_obs::clock::now_micros();
    let result = context.run_trial(
        shared.study,
        benchmark,
        cell_spec.benchmark,
        cell_spec.model,
        cell_spec.point,
        max_cycles,
        trial_seed,
    );
    // One span per trial: two clock reads and a push on the thread-local
    // buffer (drained at its capacity or cell boundaries — never a lock
    // per trial).
    sfi_obs::span::record_span(
        "trial",
        "engine",
        trial_start,
        sfi_obs::clock::now_micros().saturating_sub(trial_start),
        shared.trace_parent,
        shared.trace_job,
        [
            ("cell", sfi_obs::FieldValue::U64(cell_index as u64)),
            ("trial", sfi_obs::FieldValue::U64(job.trial as u64)),
        ],
    );

    shared.in_flight.fetch_sub(1, Ordering::SeqCst);
    shared.executed_trials.fetch_add(1, Ordering::SeqCst);

    let mut finished_cell = false;
    let mut snapshot: Option<CellResult> = None;
    // `(started_us, trials, stopped_early)` of the finishing cell, for
    // the cell span emitted outside the lock.
    let mut cell_span: Option<(u64, usize, bool)> = None;
    {
        let mut state = shared.cells[cell_index].lock().expect("cell lock");
        debug_assert!(state.results[job.trial as usize].is_none());
        if result.finished {
            state.finished += 1;
        }
        if result.correct {
            state.correct += 1;
        }
        state.results[job.trial as usize] = Some(result);
        state.completed += 1;
        if state.completed == state.scheduled && !state.done {
            // Batch boundary: decide over the full, deterministic set of
            // completed trials.
            let decision = decide(&cell_spec, &state);
            match decision {
                BatchDecision::Stop { early } => {
                    state.done = true;
                    state.stopped_early = early;
                    finished_cell = true;
                    cell_span = Some((state.started_us, state.completed, early));
                    if early {
                        let saved = cell_spec.budget.max_trials - state.completed;
                        sfi_obs::metrics().engine_trials_saved.add(saved as u64);
                    }
                    if shared.progress.is_some() {
                        snapshot = Some(snapshot_cell(cell_index, &state));
                    }
                }
                BatchDecision::Continue { additional } => {
                    let start = state.scheduled;
                    state.scheduled += additional;
                    drop(state);
                    let jobs = (start..start + additional)
                        .map(|trial| Job {
                            cell: job.cell,
                            trial: trial as u32,
                        })
                        .collect();
                    shared.push_jobs(jobs);
                }
            }
        }
    }

    if finished_cell {
        sfi_obs::metrics().engine_cells_finished.inc();
        if let Some((started_us, trials, stopped_early)) = cell_span {
            sfi_obs::span::record_span(
                "cell",
                "engine",
                started_us,
                sfi_obs::clock::now_micros().saturating_sub(started_us),
                shared.trace_parent,
                shared.trace_job,
                vec![
                    ("cell", sfi_obs::FieldValue::U64(cell_index as u64)),
                    ("trials", sfi_obs::FieldValue::U64(trials as u64)),
                    (
                        "stopped_early",
                        sfi_obs::FieldValue::U64(stopped_early as u64),
                    ),
                ],
            );
            // Cell completion is the engine's coarse boundary: drain the
            // thread buffer so wire-fetched traces stay current.
            sfi_obs::span::flush_thread();
        }
        if let (Some(hook), Some(snapshot)) = (&shared.progress, &snapshot) {
            hook(snapshot);
        }
        // Last: a worker seeing zero open cells must be able to trust that
        // all results are in place and reported.
        shared.open_cells.fetch_sub(1, Ordering::SeqCst);
    }
}

enum BatchDecision {
    Stop { early: bool },
    Continue { additional: usize },
}

fn decide(cell_spec: &CellSpec, state: &CellState) -> BatchDecision {
    let budget = cell_spec.budget;
    if let Some(rule) = budget.stop {
        // The monitored statistics are the running binomial counters —
        // order-independent, so the decision stays deterministic.
        let satisfied = state.completed >= budget.min_trials
            && rule.is_satisfied_counts(
                state.finished as u64,
                state.correct as u64,
                state.completed as u64,
            );
        if satisfied {
            return BatchDecision::Stop {
                early: state.completed < budget.max_trials,
            };
        }
    }
    let remaining = budget.max_trials - state.scheduled;
    if remaining == 0 {
        BatchDecision::Stop { early: false }
    } else {
        BatchDecision::Continue {
            additional: budget.batch.min(remaining),
        }
    }
}

fn collect_prefix(results: &[Option<TrialResult>], completed: usize) -> Vec<TrialResult> {
    results[..completed]
        .iter()
        .map(|t| t.expect("batch boundary implies a full prefix"))
        .collect()
}

/// Copies one just-finished cell out of its state (called under the cell
/// lock, once per cell).
fn snapshot_cell(index: usize, state: &CellState) -> CellResult {
    let trials = collect_prefix(&state.results, state.completed);
    let stats = CellStats::from_trials(&trials);
    CellResult {
        cell: index,
        trials,
        stats,
        stopped_early: state.stopped_early,
        from_checkpoint: state.from_checkpoint,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::StopRule;

    fn cell(len: usize, stopped_early: bool) -> CellResult {
        let trials = vec![
            TrialResult {
                finished: true,
                correct: true,
                output_error: 0.0,
                fi_rate_per_kcycle: 0.0,
                cycles: 10,
            };
            len
        ];
        CellResult {
            cell: 0,
            stats: CellStats::from_trials(&trials),
            trials,
            stopped_early,
            from_checkpoint: true,
        }
    }

    fn adaptive(min: usize, max: usize, batch: usize) -> TrialBudget {
        TrialBudget::adaptive(min, max, batch, StopRule::correct_within(0.1))
    }

    #[test]
    fn cells_the_engine_can_produce_are_restorable() {
        assert!(restorable(&cell(4, false), &TrialBudget::fixed(4)));
        let budget = adaptive(4, 10, 4);
        assert!(restorable(&cell(4, true), &budget));
        assert!(restorable(&cell(8, true), &budget));
        // The last batch is cut to the budget.
        assert!(restorable(&cell(10, false), &budget));
        // min_trials above max_trials starts at max_trials.
        let capped = TrialBudget {
            min_trials: 12,
            ..budget
        };
        assert!(restorable(&cell(10, false), &capped));
    }

    #[test]
    fn fewer_trials_than_the_initial_batch_are_rejected() {
        assert!(!restorable(&cell(1, true), &adaptive(100, 200, 10)));
        assert!(!restorable(&cell(0, true), &adaptive(1, 4, 1)));
    }

    #[test]
    fn more_trials_than_the_budget_are_rejected() {
        assert!(!restorable(&cell(5, false), &TrialBudget::fixed(4)));
        assert!(!restorable(&cell(12, false), &adaptive(4, 10, 4)));
    }

    #[test]
    fn an_early_stop_at_the_full_budget_is_rejected() {
        assert!(!restorable(&cell(10, true), &adaptive(4, 10, 4)));
        assert!(!restorable(&cell(4, true), &TrialBudget::fixed(4)));
    }

    #[test]
    fn a_short_cell_that_did_not_stop_early_is_rejected() {
        assert!(!restorable(&cell(8, false), &adaptive(4, 10, 4)));
    }

    #[test]
    fn a_short_cell_without_a_stop_rule_is_rejected() {
        let budget = TrialBudget {
            min_trials: 2,
            max_trials: 8,
            batch: 2,
            stop: None,
        };
        assert!(!restorable(&cell(4, true), &budget));
    }

    #[test]
    fn a_cell_off_the_batch_schedule_is_rejected() {
        assert!(!restorable(&cell(6, true), &adaptive(4, 20, 4)));
    }
}
