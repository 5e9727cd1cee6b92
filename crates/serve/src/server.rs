//! The campaign daemon: TCP listener, connection handlers and lifecycle.
//!
//! [`Server::start`] builds (or cache-restores) the characterized
//! [`CaseStudy`] once, spawns the scheduler thread and the accept loop,
//! and returns immediately; [`Server::join`] parks until a client sends
//! `shutdown` (or [`Server::shutdown`] is called locally).  Shutdown is
//! graceful: running jobs are cancelled at the next trial boundary, and
//! because every completed cell is appended to the journal (with
//! `--state-dir`) as it finishes, all completed work is already on disk
//! by the time the process exits.

use crate::jobs::{self, JobTable, NextCell, ResultFetch, SchedulerConfig, TableLimits};
use crate::journal::RecoveredJob;
use crate::metrics::{self, PrometheusListener};
use crate::protocol::{
    read_frame, write_frame, ErrorCode, PoffPoint, PoffReply, PoffRequest, Request, Response,
    ServerInfo, PROTOCOL_VERSION,
};
use crate::wire::{BenchmarkDef, CampaignDef, WireError};
use sfi_campaign::journal::{replay_file, Journal};
use sfi_campaign::{adaptive_poff, CampaignEngine, CampaignSpec, PoffSearch, TrialBudget};
use sfi_core::json::Json;
use sfi_core::study::{CaseStudy, CaseStudyConfig};
use sfi_fault::OperatingPoint;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address; use port 0 for an ephemeral port.
    pub addr: String,
    /// The case study to characterize and serve.
    pub study: CaseStudyConfig,
    /// Global engine worker-thread budget, shared by all concurrently
    /// running jobs (`None` = all CPUs).
    pub threads: Option<usize>,
    /// Jobs the scheduler runs at once; each gets an equal share of the
    /// thread budget.
    pub max_concurrent_jobs: usize,
    /// Per-client queued-jobs quota (`None` = unlimited).
    pub max_queued_per_client: Option<usize>,
    /// Per-client running-jobs quota (`None` = unlimited).
    pub max_running_per_client: Option<usize>,
    /// Byte cap on retained result JSON; above it the least-recently
    /// fetched results are evicted (`None` = retain until shutdown).
    pub result_cap_bytes: Option<usize>,
    /// Persistent characterization cache directory; restarts with the
    /// same study configuration skip the gate-level DTA rebuild.
    pub cache_dir: Option<PathBuf>,
    /// Durable-state directory: every job transition is journaled here
    /// (fsync'd), and a restarted daemon replays the journal to restore
    /// queued jobs and resume interrupted ones (`None` = no journal).
    pub state_dir: Option<PathBuf>,
    /// Seconds a `drain` waits for running jobs to finish before
    /// stopping them and exiting anyway (their completed cells are
    /// journaled, so a successor daemon resumes where they stopped).
    pub drain_timeout_seconds: f64,
    /// Per-connection read/write deadline in seconds; a peer that stays
    /// silent longer is disconnected (slow-loris/dead-peer protection).
    /// `0` disables the deadline.
    pub conn_timeout_seconds: f64,
    /// Maximum concurrently served connections; excess connections get
    /// one typed error frame and are closed (`None` = unlimited).
    pub max_connections: Option<usize>,
    /// Address for the Prometheus text-exposition listener (`None` = no
    /// listener; the `metrics` wire frame works either way).
    pub metrics_addr: Option<String>,
    /// Capacity of the structured-event ring (`None` = keep the default,
    /// [`sfi_obs::DEFAULT_EVENT_CAPACITY`]).
    pub event_buffer: Option<usize>,
    /// Suppress the startup log lines.
    pub quiet: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7433".into(),
            study: CaseStudyConfig::paper(),
            threads: None,
            max_concurrent_jobs: 1,
            max_queued_per_client: None,
            max_running_per_client: None,
            result_cap_bytes: None,
            cache_dir: None,
            state_dir: None,
            drain_timeout_seconds: 30.0,
            conn_timeout_seconds: 300.0,
            max_connections: None,
            metrics_addr: None,
            event_buffer: None,
            quiet: false,
        }
    }
}

impl ServeConfig {
    /// A quiet, ephemeral-port, scaled-down configuration for tests and
    /// doc-tests.
    pub fn fast_for_tests() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            study: CaseStudyConfig::fast_for_tests(),
            quiet: true,
            ..ServeConfig::default()
        }
    }

    fn limits(&self) -> TableLimits {
        TableLimits {
            max_queued_per_client: self.max_queued_per_client,
            max_running_per_client: self.max_running_per_client,
            result_cap_bytes: self.result_cap_bytes,
        }
    }
}

/// Events an `events` request returns when it does not name a `limit`.
const DEFAULT_EVENT_LIMIT: u64 = 100;

/// Trace records a `trace` request returns when it does not name a
/// `limit`.
const DEFAULT_TRACE_LIMIT: u64 = 1000;

/// Shared server context handed to every connection handler.
struct Context {
    study: Arc<CaseStudy>,
    table: Arc<JobTable>,
    scheduler: SchedulerConfig,
    cache_hit: bool,
    metrics_enabled: bool,
    /// The daemon's own listen address, used to poke the accept loop
    /// awake when a drain completes and the daemon should exit.
    addr: SocketAddr,
    /// How long a drain waits for running jobs before stopping them.
    drain_timeout: Duration,
    /// Ensures only one drainer thread is ever spawned, however many
    /// clients send `drain`.
    drainer_spawned: AtomicBool,
}

/// Decrements the live-connection counter when a handler thread exits,
/// whichever way it exits.
struct ConnectionSlot(Arc<AtomicUsize>);

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A running daemon.
pub struct Server {
    addr: SocketAddr,
    table: Arc<JobTable>,
    accept: Option<JoinHandle<()>>,
    scheduler: Option<JoinHandle<()>>,
    stopping: Arc<AtomicBool>,
    cache_hit: bool,
    metrics: Option<PrometheusListener>,
}

impl Server {
    /// Characterizes the study (warm from the cache when possible), binds
    /// the listener and spawns the scheduler and accept threads.
    pub fn start(config: ServeConfig) -> io::Result<Server> {
        let study = Arc::new(match &config.cache_dir {
            Some(dir) => CaseStudy::build_cached(config.study.clone(), dir),
            None => CaseStudy::build(config.study.clone()),
        });
        let cache_hit = study.characterization_cache_hit();
        if cache_hit {
            sfi_obs::metrics().cache_hits.inc();
        } else {
            sfi_obs::metrics().cache_misses.inc();
        }
        if let Some(capacity) = config.event_buffer {
            sfi_obs::events().set_capacity(capacity);
        }
        let metrics_listener = match &config.metrics_addr {
            Some(addr) => Some(PrometheusListener::start(addr)?),
            None => None,
        };
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let scheduler_config = SchedulerConfig {
            threads: config.threads,
            max_concurrent_jobs: config.max_concurrent_jobs.max(1),
        };
        if !config.quiet {
            println!("sfi-serve listening on {addr}");
            println!(
                "characterization: {} (fingerprint {:016x})",
                if cache_hit {
                    "cache hit"
                } else {
                    "cache miss, computed"
                },
                config.study.fingerprint()
            );
            println!(
                "scheduler: {} concurrent job(s) × {} thread(s), queued quota {}, \
                 running quota {}, result cap {}",
                scheduler_config.max_concurrent_jobs,
                scheduler_config.threads_per_job(),
                match config.max_queued_per_client {
                    Some(n) => n.to_string(),
                    None => "unlimited".into(),
                },
                match config.max_running_per_client {
                    Some(n) => n.to_string(),
                    None => "unlimited".into(),
                },
                match config.result_cap_bytes {
                    Some(n) => format!("{n} bytes"),
                    None => "unlimited".into(),
                },
            );
            if let Some(listener) = &metrics_listener {
                println!(
                    "metrics: Prometheus exposition on {}",
                    listener.local_addr()
                );
            }
        }

        // Journal recovery happens before the scheduler thread exists, so
        // restored jobs are queued (and their seed cells attached) before
        // anything can be dispatched.  The replay is compacted into a
        // fresh journal so the file does not grow across generations.
        let journal_state = match &config.state_dir {
            Some(state_dir) => {
                let path = state_dir.join(crate::journal::JOURNAL_FILE);
                let records = replay_file(&path)?;
                let recovered = crate::journal::recover(&records);
                let compacted = crate::journal::compaction_records(&recovered);
                let journal = Journal::rewrite(&path, &compacted)?;
                Some((Arc::new(journal), recovered))
            }
            None => None,
        };
        let mut table = JobTable::with_limits(config.limits());
        if let Some((journal, _)) = &journal_state {
            table = table.with_journal(journal.clone(), config.study.fingerprint());
        }
        let table = Arc::new(table);
        if let Some((journal, recovered)) = journal_state {
            let total = recovered.len();
            let live = recovered
                .iter()
                .filter(|job| job.terminal.is_none())
                .count();
            for job in recovered {
                table.restore(job, |job| readmit(&study, job));
            }
            if !config.quiet && total > 0 {
                println!(
                    "journal: recovered {total} job(s) ({live} live) from {}",
                    journal.path().display()
                );
            }
        }
        let scheduler = {
            let study = study.clone();
            let table = table.clone();
            let scheduler_config = scheduler_config.clone();
            thread::spawn(move || jobs::run_scheduler(study, table, scheduler_config))
        };

        let stopping = Arc::new(AtomicBool::new(false));
        let conn_timeout = if config.conn_timeout_seconds > 0.0 {
            Some(Duration::from_secs_f64(config.conn_timeout_seconds))
        } else {
            None
        };
        let max_connections = config.max_connections;
        let accept = {
            let context = Arc::new(Context {
                study,
                table: table.clone(),
                scheduler: scheduler_config,
                cache_hit,
                metrics_enabled: metrics_listener.is_some(),
                addr,
                drain_timeout: Duration::from_secs_f64(config.drain_timeout_seconds.max(0.0)),
                drainer_spawned: AtomicBool::new(false),
            });
            let stopping = stopping.clone();
            let live_connections = Arc::new(AtomicUsize::new(0));
            thread::spawn(move || {
                for stream in listener.incoming() {
                    if stopping.load(Ordering::SeqCst) {
                        return;
                    }
                    let Ok(stream) = stream else { continue };
                    // Deadlines apply to every read and write on the
                    // connection, so a dead or stalled peer cannot pin a
                    // handler thread (or a connection slot) forever.
                    if let Some(timeout) = conn_timeout {
                        let _ = stream.set_read_timeout(Some(timeout));
                        let _ = stream.set_write_timeout(Some(timeout));
                    }
                    let slot = ConnectionSlot(live_connections.clone());
                    if let Some(cap) = max_connections {
                        if live_connections.fetch_add(1, Ordering::SeqCst) >= cap {
                            let mut stream = stream;
                            let _ = reply(
                                &mut stream,
                                &Response::error(
                                    ErrorCode::QuotaExceeded,
                                    format!("the daemon is serving {cap} connections; retry later"),
                                ),
                            );
                            drop(slot);
                            continue;
                        }
                    } else {
                        live_connections.fetch_add(1, Ordering::SeqCst);
                    }
                    let context = context.clone();
                    let stopping = stopping.clone();
                    thread::spawn(move || {
                        let _slot = slot;
                        let peer = stream.peer_addr().ok();
                        if let Err(err) = handle_connection(stream, &context, &stopping) {
                            // A peer that goes silent past the deadline is
                            // disconnected and counted, not logged as an
                            // error.
                            if err.kind() == io::ErrorKind::WouldBlock
                                || err.kind() == io::ErrorKind::TimedOut
                            {
                                sfi_obs::metrics().conn_timeouts.inc();
                            } else if err.kind() != io::ErrorKind::UnexpectedEof
                                && err.kind() != io::ErrorKind::BrokenPipe
                                && err.kind() != io::ErrorKind::ConnectionReset
                            {
                                // Disconnects are routine; only log real
                                // errors.
                                eprintln!("sfi-serve: connection {peer:?}: {err}");
                            }
                        }
                    });
                }
            })
        };

        Ok(Server {
            addr,
            table,
            accept: Some(accept),
            scheduler: Some(scheduler),
            stopping,
            cache_hit,
            metrics: metrics_listener,
        })
    }

    /// The bound listen address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether the characterization came from the persistent cache.
    pub fn cache_hit(&self) -> bool {
        self.cache_hit
    }

    /// The bound Prometheus listener address, if `metrics_addr` was set.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics.as_ref().map(PrometheusListener::local_addr)
    }

    /// Parks until the daemon shuts down (via a client `shutdown` request
    /// or [`Server::shutdown`]).
    pub fn join(mut self) {
        self.join_threads();
    }

    /// Initiates a local shutdown and waits for the daemon to exit.
    pub fn shutdown(mut self) {
        self.stopping.store(true, Ordering::SeqCst);
        self.table.stop();
        // Unblock the accept loop.
        let _ = TcpStream::connect(self.addr);
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.scheduler.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A dropped server must not leave detached daemon threads running.
        self.stopping.store(true, Ordering::SeqCst);
        self.table.stop();
        let _ = TcpStream::connect(self.addr);
        self.join_threads();
    }
}

fn reply(writer: &mut TcpStream, response: &Response) -> io::Result<()> {
    write_frame(writer, &response.to_json())
}

fn unknown_job(writer: &mut TcpStream, job: u64) -> io::Result<()> {
    reply(
        writer,
        &Response::error(ErrorCode::UnknownJob, format!("unknown job {job}")),
    )
}

/// Serves one connection until EOF, a transport error, or shutdown.
fn handle_connection(
    stream: TcpStream,
    context: &Arc<Context>,
    stopping: &Arc<AtomicBool>,
) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    loop {
        let frame = match read_frame(&mut reader)? {
            None => return Ok(()),
            Some(Ok(frame)) => frame,
            Some(Err(WireError(message))) => {
                reply(
                    &mut writer,
                    &Response::error(ErrorCode::BadRequest, message),
                )?;
                continue;
            }
        };
        let request = match Request::from_json(&frame) {
            Ok(request) => request,
            Err(WireError(message)) => {
                reply(
                    &mut writer,
                    &Response::error(ErrorCode::BadRequest, message),
                )?;
                continue;
            }
        };
        match request {
            Request::Ping => {
                let study = &context.study;
                let config = study.config();
                let limits = context.table.limits();
                let totals = context.table.totals();
                let info = ServerInfo {
                    v: PROTOCOL_VERSION,
                    study_fingerprint: config.fingerprint(),
                    sta_limit_mhz: study.sta_limit_mhz(config.nominal_vdd),
                    nominal_vdd: config.nominal_vdd,
                    voltages: config.voltages.clone(),
                    characterization_cache_hit: context.cache_hit,
                    jobs: context.table.job_count(),
                    running_jobs: context.table.running_count(),
                    max_concurrent_jobs: context.scheduler.max_concurrent_jobs,
                    threads_per_job: context.scheduler.threads_per_job(),
                    max_queued_per_client: limits.max_queued_per_client,
                    max_running_per_client: limits.max_running_per_client,
                    result_cap_bytes: limits.result_cap_bytes,
                    retained_result_bytes: context.table.retained_bytes(),
                    metrics_enabled: context.metrics_enabled,
                    preemptions_total: totals.preemptions,
                    evictions_total: totals.evictions,
                    events_dropped_total: sfi_obs::events().dropped(),
                    draining: context.table.draining(),
                };
                reply(&mut writer, &Response::Pong(info))?;
            }
            Request::Submit(submit) => {
                let client = submit.client.as_deref().unwrap_or("anonymous");
                let spec = match admit(&context.study, &submit.spec) {
                    Ok(spec) => spec,
                    Err(response) => {
                        reply(&mut writer, &response)?;
                        continue;
                    }
                };
                let total_cells = spec.cells().len();
                let fingerprint = spec.fingerprint();
                // The instantiated spec travels into the job table; the
                // scheduler runs it as-is instead of re-instantiating from
                // the definition.  The wire definition is what the journal
                // records, since that is what a restarted daemon
                // re-instantiates.
                let spec_doc = if context.table.journal().is_some() {
                    Some(submit.spec.to_json())
                } else {
                    None
                };
                let response = match context.table.submit_keyed(
                    spec,
                    submit.priority,
                    client,
                    submit.idempotency_key.as_deref(),
                    spec_doc.as_ref(),
                ) {
                    Ok(job) => Response::Submitted {
                        job,
                        total_cells,
                        fingerprint,
                        priority: submit.priority,
                    },
                    Err(jobs::SubmitRejected::QuotaExceeded(message)) => {
                        Response::error(ErrorCode::QuotaExceeded, message)
                    }
                    Err(jobs::SubmitRejected::ShuttingDown) => {
                        Response::error(ErrorCode::ShuttingDown, "the daemon is shutting down")
                    }
                    Err(jobs::SubmitRejected::Draining) => Response::error(
                        ErrorCode::Draining,
                        "the daemon is draining and refuses new jobs",
                    ),
                };
                reply(&mut writer, &response)?;
            }
            Request::Status(job) => match context.table.status(job) {
                Some(status) => reply(&mut writer, &Response::Status(status))?,
                None => unknown_job(&mut writer, job)?,
            },
            Request::Stream(job) => stream_job(&mut writer, context, job)?,
            Request::Result(job) => match context.table.result(job) {
                ResultFetch::Document(document) => {
                    let frame = Response::ResultDoc { job, document };
                    // A result document aggregating many large cells can
                    // exceed what read_frame accepts; send an actionable
                    // error instead of a frame the client cannot read.
                    let line = frame.to_json().to_string();
                    if line.len() >= crate::protocol::MAX_FRAME_BYTES {
                        reply(
                            &mut writer,
                            &Response::error(
                                ErrorCode::ResultTooLarge,
                                format!(
                                    "result document of job {job} is {} bytes, above the \
                                     frame limit; fetch it cell by cell with 'stream'",
                                    line.len()
                                ),
                            ),
                        )?;
                    } else {
                        use std::io::Write as _;
                        writer.write_all(line.as_bytes())?;
                        writer.write_all(b"\n")?;
                        writer.flush()?;
                    }
                }
                ResultFetch::Evicted => reply(
                    &mut writer,
                    &Response::error(
                        ErrorCode::ResultEvicted,
                        format!("the result of job {job} was evicted by the retention cap"),
                    ),
                )?,
                ResultFetch::NotReady => reply(
                    &mut writer,
                    &Response::error(
                        ErrorCode::NoResult,
                        format!("job {job} has no retained result"),
                    ),
                )?,
                ResultFetch::Unknown => unknown_job(&mut writer, job)?,
            },
            Request::Poff(request) => {
                let response = run_poff(context, &request);
                reply(&mut writer, &response)?;
            }
            Request::Metrics => {
                let snapshot = metrics::snapshot_to_json(&sfi_obs::metrics().snapshot());
                reply(&mut writer, &Response::Metrics { snapshot })?;
            }
            Request::Events { limit, job } => {
                let ring = sfi_obs::events();
                let limit = limit.unwrap_or(DEFAULT_EVENT_LIMIT) as usize;
                let events = ring.recent(limit, job);
                reply(
                    &mut writer,
                    &Response::Events {
                        events: metrics::events_to_json(&events),
                        dropped: ring.dropped(),
                    },
                )?;
            }
            Request::Trace { limit, job } => {
                // Handler threads may hold un-flushed span buffers; flush
                // this one so its own frames are visible, then snapshot.
                sfi_obs::span::flush_thread();
                let store = sfi_obs::span::trace();
                let limit = limit.unwrap_or(DEFAULT_TRACE_LIMIT) as usize;
                let records = store.snapshot(limit, job);
                // One serializer for every trace surface; re-parsing its
                // output is cheap on this cold path.
                let spans = Json::parse(&sfi_obs::chrome_trace_json(&records))
                    .expect("chrome_trace_json emits valid JSON");
                reply(
                    &mut writer,
                    &Response::Trace {
                        spans,
                        dropped: store.dropped(),
                    },
                )?;
            }
            Request::Cancel(job) => {
                if context.table.cancel(job) {
                    reply(&mut writer, &Response::Cancelled { job })?;
                } else {
                    unknown_job(&mut writer, job)?;
                }
            }
            Request::Drain => {
                let running_jobs = context.table.running_count();
                context.table.drain();
                // One drainer thread per daemon, however many clients ask:
                // it waits for the running set to empty (or the timeout),
                // then shuts the daemon down.  Queued jobs stay journaled
                // for the successor.
                if !context.drainer_spawned.swap(true, Ordering::SeqCst) {
                    let context = context.clone();
                    let stopping = stopping.clone();
                    thread::spawn(move || {
                        let drained = context.table.wait_drained(context.drain_timeout);
                        if !drained {
                            eprintln!(
                                "sfi-serve: drain timeout after {:.1}s; stopping running jobs",
                                context.drain_timeout.as_secs_f64()
                            );
                        }
                        stopping.store(true, Ordering::SeqCst);
                        context.table.stop();
                        // Unblock the accept loop so the daemon can exit.
                        let _ = TcpStream::connect(context.addr);
                    });
                }
                reply(&mut writer, &Response::DrainStarted { running_jobs })?;
            }
            Request::Shutdown => {
                stopping.store(true, Ordering::SeqCst);
                context.table.stop();
                reply(&mut writer, &Response::Bye)?;
                // Unblock the accept loop so the daemon can exit.
                if let Ok(addr) = writer.local_addr() {
                    let _ = TcpStream::connect(addr);
                }
                return Ok(());
            }
        }
    }
}

/// Admits a campaign: the one path of `submit` and of journal recovery.
///
/// Guest programs are verified before anything is instantiated, then
/// every cell whose fault model needs a characterization must name a
/// voltage this daemon characterized, so failures surface as a clean
/// `error` frame at submit time instead of a failed job at run time.  The
/// error is the reply a `submit` gets.
fn admit(study: &CaseStudy, def: &CampaignDef) -> Result<CampaignSpec, Box<Response>> {
    let bad_request = |message| Box::new(Response::error(ErrorCode::BadRequest, message));
    verify_guest_programs(&def.benchmarks)?;
    for (index, cell) in def.cells.iter().enumerate() {
        let needs_characterization = matches!(
            cell.model,
            sfi_core::FaultModel::StaPeriodViolation
                | sfi_core::FaultModel::StaWithNoise
                | sfi_core::FaultModel::StatisticalDta
        );
        if needs_characterization {
            check_voltage(study, cell.vdd)
                .map_err(|message| bad_request(format!("cell {index}: {message}")))?;
        }
    }
    def.instantiate()
        .map_err(|WireError(message)| bad_request(message))
}

/// Rejects a voltage this daemon has no characterization for.
fn check_voltage(study: &CaseStudy, vdd: f64) -> Result<(), String> {
    let voltages = &study.config().voltages;
    if voltages.iter().any(|&v| (v - vdd).abs() < 1e-9) {
        return Ok(());
    }
    Err(format!(
        "voltage {vdd} V is not characterized by this daemon (available: {voltages:?})"
    ))
}

/// Re-admits a live journaled job during restart recovery: its `submit`
/// record must name this daemon's study (a record without one is
/// trusted), and its definition must still parse and pass [`admit`].
fn readmit(study: &CaseStudy, job: &RecoveredJob) -> Result<CampaignSpec, String> {
    let ours = study.config().fingerprint().to_string();
    if let Some(theirs) = job.study.as_deref().filter(|&theirs| theirs != ours) {
        return Err(format!(
            "it was submitted under study {theirs}, but this daemon serves study {ours}"
        ));
    }
    let def = CampaignDef::from_json(&job.spec).map_err(|WireError(message)| message)?;
    admit(study, &def).map_err(|response| {
        let Response::Error { message, .. } = *response else {
            unreachable!("admission refuses with error frames")
        };
        message
    })
}

/// Streams job cells in completion order, then the terminating `end`.
fn stream_job(writer: &mut TcpStream, context: &Context, job: u64) -> io::Result<()> {
    let mut index = 0usize;
    loop {
        match context.table.next_cell(job, index) {
            NextCell::Cell(cell) => {
                reply(writer, &Response::Cell { job, index, cell })?;
                index += 1;
            }
            NextCell::End(state) => {
                return reply(
                    writer,
                    &Response::End {
                        job,
                        state,
                        streamed_cells: index,
                    },
                );
            }
            NextCell::Evicted => {
                return reply(
                    writer,
                    &Response::error(
                        ErrorCode::ResultEvicted,
                        format!("the cells of job {job} were evicted by the retention cap"),
                    ),
                );
            }
            NextCell::Unknown => {
                return unknown_job(writer, job);
            }
        }
    }
}

/// Statically verifies every guest program among the given benchmark
/// definitions *before* anything is instantiated, so a hostile program is
/// rejected before its construction-time golden run can even start.
///
/// Built-in recipes pass through untouched.  The first guest program that
/// fails to decode yields a plain `bad_request`; the first one with
/// error-level analyzer findings yields a `bad_request` whose structured
/// `detail` payload lists every finding (warnings included, so the
/// submitter sees the full report).
fn verify_guest_programs(defs: &[BenchmarkDef]) -> Result<(), Box<Response>> {
    for (index, def) in defs.iter().enumerate() {
        let BenchmarkDef::Program {
            words,
            dmem_words,
            fi_window,
            ..
        } = def
        else {
            continue;
        };
        let program = match sfi_isa::Program::from_words(words) {
            Ok(program) => program,
            Err(error) => {
                return Err(Box::new(Response::error(
                    ErrorCode::BadRequest,
                    format!("benchmark {index}: guest program does not decode: {error}"),
                )));
            }
        };
        let config =
            sfi_verify::VerifyConfig::new(*dmem_words).with_fi_window(fi_window.0..fi_window.1);
        let report = sfi_verify::verify(&program, &config);
        if report.has_errors() {
            return Err(Box::new(Response::error_with_detail(
                ErrorCode::BadRequest,
                format!(
                    "benchmark {index}: guest program rejected by static verification \
                     ({} error(s), {} warning(s))",
                    report.error_count(),
                    report.warning_count()
                ),
                verification_detail(index, &report),
            )));
        }
    }
    Ok(())
}

/// The structured `detail` payload of a verification rejection.
fn verification_detail(benchmark: usize, report: &sfi_verify::Report) -> Json {
    let findings = report
        .diagnostics
        .iter()
        .map(|d| {
            Json::obj([
                ("code", Json::Str(d.rule.code().into())),
                ("severity", Json::Str(d.severity().to_string())),
                ("start_pc", Json::Num(f64::from(d.span.start))),
                ("end_pc", Json::Num(f64::from(d.span.end))),
                ("message", Json::Str(d.message.clone())),
            ])
        })
        .collect();
    Json::obj([
        ("kind", Json::Str("verification".into())),
        ("benchmark", Json::Num(benchmark as f64)),
        ("findings", Json::Arr(findings)),
    ])
}

/// Runs a PoFF bisection synchronously on the handler thread (the engine
/// underneath still parallelizes each evaluated cell's trials within one
/// job's thread budget).
fn run_poff(context: &Context, request: &PoffRequest) -> Response {
    if let Err(message) = check_voltage(&context.study, request.vdd) {
        return Response::error(ErrorCode::BadRequest, message);
    }
    if let Err(response) = verify_guest_programs(std::slice::from_ref(&request.benchmark)) {
        return *response;
    }
    let benchmark = match request.benchmark.instantiate() {
        Ok(benchmark) => benchmark,
        Err(WireError(message)) => return Response::error(ErrorCode::BadRequest, message),
    };
    let engine = CampaignEngine::new().with_threads(context.scheduler.threads_per_job());
    let search = PoffSearch {
        lo_mhz: request.lo_mhz,
        hi_mhz: request.hi_mhz,
        resolution_mhz: request.resolution_mhz,
        budget: TrialBudget::fixed(request.trials),
    };
    let base_point = OperatingPoint::new(request.lo_mhz, request.vdd)
        .with_noise_sigma_mv(request.noise_sigma_mv);
    let outcome = adaptive_poff(
        &engine,
        &context.study,
        benchmark,
        request.model,
        base_point,
        search,
        request.seed,
    );
    Response::Poff(PoffReply {
        poff_mhz: outcome.poff_mhz,
        cells_evaluated: outcome.cells_evaluated,
        evaluated: outcome
            .evaluated
            .iter()
            .map(|point| PoffPoint {
                freq_mhz: point.freq_mhz,
                correct_fraction: point.summary.correct_fraction(),
                finished_fraction: point.summary.finished_fraction(),
            })
            .collect(),
    })
}
