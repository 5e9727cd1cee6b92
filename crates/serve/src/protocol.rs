//! The wire protocol: newline-delimited JSON frames.
//!
//! Every frame is one JSON object on one line, terminated by `\n`.  The
//! client sends [`Request`] frames; the server answers with one or more
//! [`Response`] frames.  All requests are answered by exactly one response
//! except `stream`, which emits one `cell` frame per campaign cell (in
//! completion order, as they finish) followed by a terminating `end`
//! frame.  Responses to invalid input are `error` frames carrying a
//! machine-readable [`ErrorCode`]; the connection stays open, so one bad
//! request does not cost a reconnect.
//!
//! | request    | fields                               | response(s)                        |
//! |------------|--------------------------------------|------------------------------------|
//! | `ping`     | —                                    | `pong` (server + scheduler info)   |
//! | `submit`   | `spec`, `priority`?, `client`?       | `submitted` (job id, cell count)   |
//! | `status`   | `job`                                | `status` (state, progress, class)  |
//! | `stream`   | `job`                                | `cell`* then `end`                 |
//! | `result`   | `job`                                | `result` (full result document)    |
//! | `poff`     | [`PoffRequest`] fields               | `poff` (bisection outcome)         |
//! | `metrics`  | —                                    | `metrics` (full registry snapshot) |
//! | `events`   | `limit`?, `job`?                     | `events` (recent structured events)|
//! | `cancel`   | `job`                                | `cancelled`                        |
//! | `drain`    | —                                    | `drain_started`, then the daemon   |
//! |            |                                      | finishes running jobs and exits    |
//! | `shutdown` | —                                    | `bye`, then the daemon exits       |
//!
//! The human-readable reference (every frame with worked examples, all
//! error codes, and an `nc` session transcript) is `docs/PROTOCOL.md`;
//! a doc-sync test round-trips every JSON example in that file through
//! these types, so document and implementation cannot drift.
//!
//! Cell payloads use the campaign cell codec
//! (`sfi_campaign::checkpoint::cell_to_json`, also the record format of
//! checkpoint logs and the journal), and the `result` document is the one
//! [`sfi_campaign::CampaignResult::to_json`] exports for the same
//! campaign.

use crate::jobs::{JobState, JobStatus, Priority};
use crate::wire::{
    get, get_bool, get_finite, get_str, get_u64, model_from_json, model_to_json, CampaignDef,
    WireError, MAX_CLIENT_ID_BYTES,
};
use sfi_core::json::Json;
use sfi_core::FaultModel;
use std::io::{self, BufRead, Write};

/// Protocol version, reported as `"v"` by `pong`.  Version 1 is frozen in
/// `docs/PROTOCOL.md`; additive fields do not bump it, incompatible
/// changes do.
pub const PROTOCOL_VERSION: u64 = 1;

/// Hard cap on one frame's size: a line longer than this is a protocol
/// error and the connection is closed (the reader cannot resynchronize
/// reliably once it abandons a line).
pub const MAX_FRAME_BYTES: usize = 8 * 1024 * 1024;

/// Writes one frame: the document on a single line, `\n` terminated.
pub fn write_frame(writer: &mut impl Write, doc: &Json) -> io::Result<()> {
    let mut line = doc.to_string();
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// Reads one frame.
///
/// Returns `Ok(None)` on a clean EOF, `Ok(Some(Err(..)))` on a malformed
/// frame (the connection is still synchronized — the bad line was fully
/// consumed), and an [`io::Error`] on transport problems, including frames
/// longer than [`MAX_FRAME_BYTES`].
pub fn read_frame(reader: &mut impl BufRead) -> io::Result<Option<Result<Json, WireError>>> {
    loop {
        let mut line = Vec::new();
        let mut limited = io::Read::take(&mut *reader, MAX_FRAME_BYTES as u64 + 1);
        let n = limited.read_until(b'\n', &mut line)?;
        if n == 0 {
            return Ok(None);
        }
        if line.len() > MAX_FRAME_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame exceeds {MAX_FRAME_BYTES} bytes"),
            ));
        }
        let text = match std::str::from_utf8(&line) {
            Ok(text) => text.trim(),
            Err(_) => return Ok(Some(Err(WireError("frame is not valid UTF-8".into())))),
        };
        if text.is_empty() {
            // Tolerate blank lines between frames (useful for hand-typed
            // sessions over netcat).
            continue;
        }
        return Ok(Some(
            Json::parse(text).map_err(|e| WireError(format!("malformed frame: {e}"))),
        ));
    }
}

/// Machine-readable classification of an `error` frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request was malformed, out of range, or referenced something
    /// this daemon cannot serve (e.g. an uncharacterized voltage).
    BadRequest,
    /// The referenced job id does not exist.
    UnknownJob,
    /// The client exceeded its queued-jobs quota.
    QuotaExceeded,
    /// The job finished, but its result was evicted by the retention
    /// cap; only the status survives.
    ResultEvicted,
    /// The job has no result document (still in flight, failed, or
    /// cancelled).
    NoResult,
    /// The result document exceeds the frame limit; fetch it cell by
    /// cell with `stream`.
    ResultTooLarge,
    /// The daemon is shutting down and accepts no new work.
    ShuttingDown,
    /// The daemon is draining: running jobs finish (or are checkpointed)
    /// but new submissions are refused.  Clients should retry against
    /// the restarted daemon.
    Draining,
}

impl ErrorCode {
    /// The wire name of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownJob => "unknown_job",
            ErrorCode::QuotaExceeded => "quota_exceeded",
            ErrorCode::ResultEvicted => "result_evicted",
            ErrorCode::NoResult => "no_result",
            ErrorCode::ResultTooLarge => "result_too_large",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Draining => "draining",
        }
    }

    /// Parses a wire name; `None` for anything else.
    pub fn parse(s: &str) -> Option<ErrorCode> {
        match s {
            "bad_request" => Some(ErrorCode::BadRequest),
            "unknown_job" => Some(ErrorCode::UnknownJob),
            "quota_exceeded" => Some(ErrorCode::QuotaExceeded),
            "result_evicted" => Some(ErrorCode::ResultEvicted),
            "no_result" => Some(ErrorCode::NoResult),
            "result_too_large" => Some(ErrorCode::ResultTooLarge),
            "shutting_down" => Some(ErrorCode::ShuttingDown),
            "draining" => Some(ErrorCode::Draining),
            _ => None,
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A PoFF bisection query: locate the point of first failure of one
/// benchmark under one model, without building a full campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct PoffRequest {
    /// The benchmark to search.
    pub benchmark: crate::wire::BenchmarkDef,
    /// The fault model.
    pub model: FaultModel,
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Supply-noise sigma in millivolts.
    pub noise_sigma_mv: f64,
    /// Lower end of the searched range, MHz.
    pub lo_mhz: f64,
    /// Upper end of the searched range, MHz.
    pub hi_mhz: f64,
    /// Bracket resolution, MHz.
    pub resolution_mhz: f64,
    /// Monte-Carlo trials per evaluated frequency.
    pub trials: usize,
    /// Search seed.
    pub seed: u64,
}

impl PoffRequest {
    fn to_json(&self) -> Json {
        Json::obj([
            ("type", Json::Str("poff".into())),
            ("benchmark", self.benchmark.to_json()),
            ("model", model_to_json(self.model)),
            ("vdd", Json::Num(self.vdd)),
            ("noise_sigma_mv", Json::Num(self.noise_sigma_mv)),
            ("lo_mhz", Json::Num(self.lo_mhz)),
            ("hi_mhz", Json::Num(self.hi_mhz)),
            ("resolution_mhz", Json::Num(self.resolution_mhz)),
            ("trials", Json::Num(self.trials as f64)),
            ("seed", Json::Str(self.seed.to_string())),
        ])
    }

    fn from_json(value: &Json) -> Result<Self, WireError> {
        let req = PoffRequest {
            benchmark: crate::wire::BenchmarkDef::from_json(get(value, "benchmark")?)?,
            model: model_from_json(get(value, "model")?)?,
            vdd: get_finite(value, "vdd")?,
            noise_sigma_mv: get_finite(value, "noise_sigma_mv")?,
            lo_mhz: get_finite(value, "lo_mhz")?,
            hi_mhz: get_finite(value, "hi_mhz")?,
            resolution_mhz: get_finite(value, "resolution_mhz")?,
            trials: get_u64(value, "trials")? as usize,
            seed: get_u64(value, "seed")?,
        };
        if req.vdd <= 0.0 {
            return Err(WireError("'vdd' must be positive".into()));
        }
        if req.noise_sigma_mv < 0.0 {
            return Err(WireError("'noise_sigma_mv' must be non-negative".into()));
        }
        if !(req.lo_mhz > 0.0 && req.hi_mhz > req.lo_mhz) {
            return Err(WireError(
                "'lo_mhz'/'hi_mhz' must form a positive, non-empty range".into(),
            ));
        }
        if req.resolution_mhz <= 0.0 {
            return Err(WireError("'resolution_mhz' must be positive".into()));
        }
        if req.trials == 0 || req.trials > crate::wire::MAX_TRIALS_PER_CELL {
            return Err(WireError(format!(
                "'trials' must be in 1..={}",
                crate::wire::MAX_TRIALS_PER_CELL
            )));
        }
        Ok(req)
    }
}

/// Encodes `None` as JSON `null` and `Some(n)` as a number.
fn opt_num(value: Option<usize>) -> Json {
    match value {
        Some(n) => Json::Num(n as f64),
        None => Json::Null,
    }
}

/// Decodes a member that is either `null` or an unsigned integer.
fn opt_u64_member(value: &Json, key: &str) -> Result<Option<u64>, WireError> {
    match get(value, key)? {
        Json::Null => Ok(None),
        v => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| WireError(format!("'{key}' must be null or an unsigned integer"))),
    }
}

/// The payload of a `submit` request: the campaign plus its scheduling
/// parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRequest {
    /// The wire campaign to instantiate and run.
    pub spec: CampaignDef,
    /// Scheduling class (absent on the wire = `normal`).
    pub priority: Priority,
    /// Client id the quotas are accounted against (absent on the wire =
    /// the daemon-side default, `"anonymous"`).
    pub client: Option<String>,
    /// Client-supplied idempotency key.  Re-submitting with the same
    /// `(client, key)` pair returns the already-assigned job id instead
    /// of creating a duplicate job, which makes retrying a `submit`
    /// whose acknowledgement was lost safe.  Absent = no deduplication.
    pub idempotency_key: Option<String>,
}

impl SubmitRequest {
    /// A `normal`-priority submission with the default client id.
    pub fn new(spec: CampaignDef) -> Self {
        SubmitRequest {
            spec,
            priority: Priority::Normal,
            client: None,
            idempotency_key: None,
        }
    }
}

/// A client request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness / server-info probe.
    Ping,
    /// Submit a campaign for execution.
    Submit(SubmitRequest),
    /// Poll one job's status.
    Status(u64),
    /// Stream a job's per-cell results as they complete.
    Stream(u64),
    /// Fetch a finished job's full result document.
    Result(u64),
    /// Run a PoFF bisection query synchronously.
    Poff(PoffRequest),
    /// Fetch a snapshot of the daemon's metrics registry.
    Metrics,
    /// Fetch recent structured events from the daemon's event ring.
    Events {
        /// Maximum events to return (absent = the daemon default, 100).
        limit: Option<u64>,
        /// Only events tagged with this job id (absent = all events).
        job: Option<u64>,
    },
    /// Fetch recent trace records (spans and utilization counters)
    /// from the daemon's bounded trace store.
    Trace {
        /// Maximum records to return (absent = the daemon default, 1000).
        limit: Option<u64>,
        /// Only records tagged with this job id (absent = all records).
        job: Option<u64>,
    },
    /// Cancel a queued or running job.
    Cancel(u64),
    /// Begin draining: refuse new submits, finish running jobs, exit.
    Drain,
    /// Stop the daemon gracefully.
    Shutdown,
}

impl Request {
    /// Serializes to a frame document.  Optional submit fields at their
    /// defaults (`normal` priority, no client id) are omitted — the
    /// canonical encoding of a default is absence.
    pub fn to_json(&self) -> Json {
        let typed = |t: &str| Json::obj([("type", Json::Str(t.into()))]);
        let with_job = |t: &str, job: u64| {
            Json::obj([
                ("type", Json::Str(t.into())),
                ("job", Json::Str(job.to_string())),
            ])
        };
        match self {
            Request::Ping => typed("ping"),
            Request::Submit(submit) => {
                let mut pairs = vec![
                    ("type", Json::Str("submit".into())),
                    ("spec", submit.spec.to_json()),
                ];
                if submit.priority != Priority::Normal {
                    pairs.push(("priority", Json::Str(submit.priority.as_str().into())));
                }
                if let Some(client) = &submit.client {
                    pairs.push(("client", Json::Str(client.clone())));
                }
                if let Some(key) = &submit.idempotency_key {
                    pairs.push(("idempotency_key", Json::Str(key.clone())));
                }
                Json::obj(pairs)
            }
            Request::Status(job) => with_job("status", *job),
            Request::Stream(job) => with_job("stream", *job),
            Request::Result(job) => with_job("result", *job),
            Request::Poff(req) => req.to_json(),
            Request::Metrics => typed("metrics"),
            Request::Events { limit, job } => {
                let mut pairs = vec![("type", Json::Str("events".into()))];
                if let Some(limit) = limit {
                    pairs.push(("limit", Json::Num(*limit as f64)));
                }
                if let Some(job) = job {
                    pairs.push(("job", Json::Str(job.to_string())));
                }
                Json::obj(pairs)
            }
            Request::Trace { limit, job } => {
                let mut pairs = vec![("type", Json::Str("trace".into()))];
                if let Some(limit) = limit {
                    pairs.push(("limit", Json::Num(*limit as f64)));
                }
                if let Some(job) = job {
                    pairs.push(("job", Json::Str(job.to_string())));
                }
                Json::obj(pairs)
            }
            Request::Cancel(job) => with_job("cancel", *job),
            Request::Drain => typed("drain"),
            Request::Shutdown => typed("shutdown"),
        }
    }

    /// Decodes a frame document.
    pub fn from_json(value: &Json) -> Result<Self, WireError> {
        let kind = value
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| WireError("missing request 'type'".into()))?;
        match kind {
            "ping" => Ok(Request::Ping),
            "submit" => {
                let spec = CampaignDef::from_json(get(value, "spec")?)?;
                let priority = match value.get("priority") {
                    None => Priority::Normal,
                    Some(p) => {
                        let name = p
                            .as_str()
                            .ok_or_else(|| WireError("'priority' must be a string".into()))?;
                        Priority::parse(name).ok_or_else(|| {
                            WireError(format!(
                                "unknown priority '{name}' (expected low, normal or high)"
                            ))
                        })?
                    }
                };
                let client = match value.get("client") {
                    None => None,
                    Some(c) => {
                        let id = c
                            .as_str()
                            .ok_or_else(|| WireError("'client' must be a string".into()))?;
                        if id.is_empty() || id.len() > MAX_CLIENT_ID_BYTES {
                            return Err(WireError(format!(
                                "'client' must be 1..={MAX_CLIENT_ID_BYTES} bytes"
                            )));
                        }
                        Some(id.to_string())
                    }
                };
                let idempotency_key = match value.get("idempotency_key") {
                    None => None,
                    Some(k) => {
                        let key = k.as_str().ok_or_else(|| {
                            WireError("'idempotency_key' must be a string".into())
                        })?;
                        if key.is_empty() || key.len() > MAX_CLIENT_ID_BYTES {
                            return Err(WireError(format!(
                                "'idempotency_key' must be 1..={MAX_CLIENT_ID_BYTES} bytes"
                            )));
                        }
                        Some(key.to_string())
                    }
                };
                Ok(Request::Submit(SubmitRequest {
                    spec,
                    priority,
                    client,
                    idempotency_key,
                }))
            }
            "status" => Ok(Request::Status(get_u64(value, "job")?)),
            "stream" => Ok(Request::Stream(get_u64(value, "job")?)),
            "result" => Ok(Request::Result(get_u64(value, "job")?)),
            "poff" => Ok(Request::Poff(PoffRequest::from_json(value)?)),
            "metrics" => Ok(Request::Metrics),
            "events" => {
                Ok(Request::Events {
                    limit: match value.get("limit") {
                        None => None,
                        Some(v) => Some(v.as_u64().ok_or_else(|| {
                            WireError("'limit' must be an unsigned integer".into())
                        })?),
                    },
                    job: match value.get("job") {
                        None => None,
                        Some(v) => Some(v.as_u64().ok_or_else(|| {
                            WireError("'job' must be an unsigned integer".into())
                        })?),
                    },
                })
            }
            "trace" => {
                Ok(Request::Trace {
                    limit: match value.get("limit") {
                        None => None,
                        Some(v) => Some(v.as_u64().ok_or_else(|| {
                            WireError("'limit' must be an unsigned integer".into())
                        })?),
                    },
                    job: match value.get("job") {
                        None => None,
                        Some(v) => Some(v.as_u64().ok_or_else(|| {
                            WireError("'job' must be an unsigned integer".into())
                        })?),
                    },
                })
            }
            "cancel" => Ok(Request::Cancel(get_u64(value, "job")?)),
            "drain" => Ok(Request::Drain),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(WireError(format!("unknown request type '{other}'"))),
        }
    }
}

/// Server self-description carried by a `pong` frame.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerInfo {
    /// Protocol version (the `"v"` member; see [`PROTOCOL_VERSION`]).
    pub v: u64,
    /// Fingerprint of the served [`sfi_core::CaseStudyConfig`].
    pub study_fingerprint: u64,
    /// STA limit at the nominal voltage, MHz.
    pub sta_limit_mhz: f64,
    /// The nominal supply voltage.
    pub nominal_vdd: f64,
    /// Characterized supply voltages.
    pub voltages: Vec<f64>,
    /// Whether the daemon started warm from the characterization cache.
    pub characterization_cache_hit: bool,
    /// Jobs submitted to this daemon so far.
    pub jobs: usize,
    /// Jobs currently running.
    pub running_jobs: usize,
    /// Concurrency slots of the scheduler.
    pub max_concurrent_jobs: usize,
    /// Engine worker threads each running job is budgeted.
    pub threads_per_job: usize,
    /// Per-client queued-jobs quota (`None` = unlimited).
    pub max_queued_per_client: Option<usize>,
    /// Per-client running-jobs quota (`None` = unlimited).
    pub max_running_per_client: Option<usize>,
    /// Retained-result byte cap (`None` = retain until shutdown).
    pub result_cap_bytes: Option<usize>,
    /// Result bytes currently retained.
    pub retained_result_bytes: usize,
    /// Whether a Prometheus listener (`--metrics-addr`) is serving.
    /// The `metrics`/`events` frames are always available.
    pub metrics_enabled: bool,
    /// Cooperative preemptions performed since daemon start.
    pub preemptions_total: u64,
    /// Retained results evicted under the byte cap since daemon start.
    pub evictions_total: u64,
    /// Events discarded from the bounded in-memory ring since daemon
    /// start (also exported as `sfi_events_dropped_total`).
    pub events_dropped_total: u64,
    /// Whether the daemon is draining: running jobs finish but new
    /// submissions are refused with the `draining` error code.
    pub draining: bool,
}

impl ServerInfo {
    fn to_json(&self) -> Json {
        Json::obj([
            ("type", Json::Str("pong".into())),
            ("v", Json::Num(self.v as f64)),
            (
                "study_fingerprint",
                Json::Str(self.study_fingerprint.to_string()),
            ),
            ("sta_limit_mhz", Json::Num(self.sta_limit_mhz)),
            ("nominal_vdd", Json::Num(self.nominal_vdd)),
            (
                "voltages",
                Json::Arr(self.voltages.iter().map(|&v| Json::Num(v)).collect()),
            ),
            (
                "characterization_cache_hit",
                Json::Bool(self.characterization_cache_hit),
            ),
            ("jobs", Json::Num(self.jobs as f64)),
            ("running_jobs", Json::Num(self.running_jobs as f64)),
            (
                "max_concurrent_jobs",
                Json::Num(self.max_concurrent_jobs as f64),
            ),
            ("threads_per_job", Json::Num(self.threads_per_job as f64)),
            ("max_queued_per_client", opt_num(self.max_queued_per_client)),
            (
                "max_running_per_client",
                opt_num(self.max_running_per_client),
            ),
            ("result_cap_bytes", opt_num(self.result_cap_bytes)),
            (
                "retained_result_bytes",
                Json::Num(self.retained_result_bytes as f64),
            ),
            ("metrics_enabled", Json::Bool(self.metrics_enabled)),
            (
                "preemptions_total",
                Json::Num(self.preemptions_total as f64),
            ),
            ("evictions_total", Json::Num(self.evictions_total as f64)),
            (
                "events_dropped_total",
                Json::Num(self.events_dropped_total as f64),
            ),
            ("draining", Json::Bool(self.draining)),
        ])
    }

    fn from_json(value: &Json) -> Result<Self, WireError> {
        Ok(ServerInfo {
            v: get_u64(value, "v")?,
            study_fingerprint: get_u64(value, "study_fingerprint")?,
            sta_limit_mhz: get_finite(value, "sta_limit_mhz")?,
            nominal_vdd: get_finite(value, "nominal_vdd")?,
            voltages: value
                .get("voltages")
                .and_then(Json::as_arr)
                .ok_or_else(|| WireError("'voltages' must be an array".into()))?
                .iter()
                .map(|v| {
                    v.as_f64()
                        .filter(|v| v.is_finite())
                        .ok_or_else(|| WireError("'voltages' entries must be numbers".into()))
                })
                .collect::<Result<_, _>>()?,
            characterization_cache_hit: get_bool(value, "characterization_cache_hit")?,
            jobs: get_u64(value, "jobs")? as usize,
            running_jobs: get_u64(value, "running_jobs")? as usize,
            max_concurrent_jobs: get_u64(value, "max_concurrent_jobs")? as usize,
            threads_per_job: get_u64(value, "threads_per_job")? as usize,
            max_queued_per_client: opt_u64_member(value, "max_queued_per_client")?
                .map(|n| n as usize),
            max_running_per_client: opt_u64_member(value, "max_running_per_client")?
                .map(|n| n as usize),
            result_cap_bytes: opt_u64_member(value, "result_cap_bytes")?.map(|n| n as usize),
            retained_result_bytes: get_u64(value, "retained_result_bytes")? as usize,
            // Absent on frames from pre-observability daemons: the four
            // members below are additive, so decoding defaults them.
            metrics_enabled: value
                .get("metrics_enabled")
                .and_then(Json::as_bool)
                .unwrap_or(false),
            preemptions_total: value
                .get("preemptions_total")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            evictions_total: value
                .get("evictions_total")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            events_dropped_total: value
                .get("events_dropped_total")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            draining: value
                .get("draining")
                .and_then(Json::as_bool)
                .unwrap_or(false),
        })
    }
}

/// One frequency evaluated by a PoFF bisection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoffPoint {
    /// The evaluated clock frequency, MHz.
    pub freq_mhz: f64,
    /// Fraction of trials with bit-exact output.
    pub correct_fraction: f64,
    /// Fraction of trials that ran to completion.
    pub finished_fraction: f64,
}

/// The outcome of a PoFF query (`poff` response frame).
#[derive(Debug, Clone, PartialEq)]
pub struct PoffReply {
    /// The located point of first failure, if any failure was found.
    pub poff_mhz: Option<f64>,
    /// Frequencies the bisection actually evaluated.
    pub cells_evaluated: usize,
    /// Every evaluated point, in evaluation order.
    pub evaluated: Vec<PoffPoint>,
}

/// A server response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to `ping`.
    Pong(ServerInfo),
    /// Acknowledgement of an accepted `submit`.
    Submitted {
        /// The assigned job id.
        job: u64,
        /// Number of cells the campaign will run.
        total_cells: usize,
        /// The instantiated spec's fingerprint.
        fingerprint: u64,
        /// The scheduling class the job was accepted at.
        priority: Priority,
    },
    /// Reply to `status`.
    Status(JobStatus),
    /// One streamed cell (`stream` emits zero or more of these).
    Cell {
        /// The job the cell belongs to.
        job: u64,
        /// Stream position (0-based, completion order).
        index: usize,
        /// The cell document (campaign cell codec).
        cell: Json,
    },
    /// Terminates a `stream`.
    End {
        /// The streamed job.
        job: u64,
        /// The job's final state.
        state: JobState,
        /// How many `cell` frames the stream carried.
        streamed_cells: usize,
    },
    /// Reply to `result`.
    ResultDoc {
        /// The fetched job.
        job: u64,
        /// The full result document (`CampaignResult::to_json`).
        document: Json,
    },
    /// Reply to `poff`.
    Poff(PoffReply),
    /// Reply to `metrics`: a point-in-time registry snapshot.
    ///
    /// The snapshot document is carried verbatim (see
    /// `crate::metrics::snapshot_to_json` for its layout) so the frame
    /// round-trips byte-exactly regardless of which metric families a
    /// future daemon adds.
    Metrics {
        /// The snapshot document: `{"families": [...]}`.
        snapshot: Json,
    },
    /// Reply to `events`: recent structured events, oldest first.
    Events {
        /// The event documents, oldest first.
        events: Json,
        /// Events discarded because the ring overflowed (cumulative).
        dropped: u64,
    },
    /// Reply to `trace`: recent trace records as Chrome trace-event
    /// objects, sorted by timestamp.
    ///
    /// The record documents are [`sfi_obs::chrome_trace_json`]'s output,
    /// carried verbatim so the frame round-trips byte-exactly as the span
    /// vocabulary grows and clients can write it straight to a
    /// `chrome://tracing` file.
    Trace {
        /// The Chrome trace-event objects, sorted by timestamp.
        spans: Json,
        /// Records discarded because the store overflowed (cumulative).
        dropped: u64,
    },
    /// Acknowledgement of a `cancel`.
    Cancelled {
        /// The cancelled job.
        job: u64,
    },
    /// Acknowledgement of `drain`: the daemon now refuses new submits,
    /// finishes (or checkpoints) its running jobs, then exits.
    DrainStarted {
        /// Jobs that were running when the drain began.
        running_jobs: usize,
    },
    /// Acknowledgement of `shutdown`; the daemon exits afterwards.
    Bye,
    /// Any request that could not be served.
    Error {
        /// Machine-readable classification.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
        /// Optional structured payload describing the rejection (e.g. the
        /// analyzer findings of a refused guest program).  Additive in v1:
        /// the member is absent when there is nothing structured to say,
        /// and v1 clients that only read `code`/`message` keep working.
        detail: Option<Json>,
    },
}

impl Response {
    /// Convenience constructor for error frames.
    pub fn error(code: ErrorCode, message: impl Into<String>) -> Response {
        Response::Error {
            code,
            message: message.into(),
            detail: None,
        }
    }

    /// An error frame carrying a structured `detail` payload.
    pub fn error_with_detail(
        code: ErrorCode,
        message: impl Into<String>,
        detail: Json,
    ) -> Response {
        Response::Error {
            code,
            message: message.into(),
            detail: Some(detail),
        }
    }

    /// Serializes to a frame document.
    pub fn to_json(&self) -> Json {
        match self {
            Response::Pong(info) => info.to_json(),
            Response::Submitted {
                job,
                total_cells,
                fingerprint,
                priority,
            } => Json::obj([
                ("type", Json::Str("submitted".into())),
                ("job", Json::Str(job.to_string())),
                ("total_cells", Json::Num(*total_cells as f64)),
                ("fingerprint", Json::Str(fingerprint.to_string())),
                ("priority", Json::Str(priority.as_str().into())),
            ]),
            Response::Status(status) => Json::obj([
                ("type", Json::Str("status".into())),
                ("job", Json::Str(status.job.to_string())),
                ("state", Json::Str(status.state.as_str().into())),
                ("priority", Json::Str(status.priority.as_str().into())),
                ("client", Json::Str(status.client.clone())),
                ("completed_cells", Json::Num(status.completed_cells as f64)),
                ("total_cells", Json::Num(status.total_cells as f64)),
                ("executed_trials", Json::Num(status.executed_trials as f64)),
                ("preemptions", Json::Num(status.preemptions as f64)),
                ("evicted", Json::Bool(status.evicted)),
                (
                    "error",
                    match &status.error {
                        Some(message) => Json::Str(message.clone()),
                        None => Json::Null,
                    },
                ),
            ]),
            Response::Cell { job, index, cell } => Json::obj([
                ("type", Json::Str("cell".into())),
                ("job", Json::Str(job.to_string())),
                ("index", Json::Num(*index as f64)),
                ("cell", cell.clone()),
            ]),
            Response::End {
                job,
                state,
                streamed_cells,
            } => Json::obj([
                ("type", Json::Str("end".into())),
                ("job", Json::Str(job.to_string())),
                ("state", Json::Str(state.as_str().into())),
                ("streamed_cells", Json::Num(*streamed_cells as f64)),
            ]),
            Response::ResultDoc { job, document } => Json::obj([
                ("type", Json::Str("result".into())),
                ("job", Json::Str(job.to_string())),
                ("document", document.clone()),
            ]),
            Response::Poff(reply) => Json::obj([
                ("type", Json::Str("poff".into())),
                (
                    "poff_mhz",
                    match reply.poff_mhz {
                        Some(freq) => Json::Num(freq),
                        None => Json::Null,
                    },
                ),
                ("cells_evaluated", Json::Num(reply.cells_evaluated as f64)),
                (
                    "evaluated",
                    Json::Arr(
                        reply
                            .evaluated
                            .iter()
                            .map(|point| {
                                Json::obj([
                                    ("freq_mhz", Json::Num(point.freq_mhz)),
                                    ("correct_fraction", Json::Num(point.correct_fraction)),
                                    ("finished_fraction", Json::Num(point.finished_fraction)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            Response::Metrics { snapshot } => Json::obj([
                ("type", Json::Str("metrics".into())),
                ("snapshot", snapshot.clone()),
            ]),
            Response::Events { events, dropped } => Json::obj([
                ("type", Json::Str("events".into())),
                ("events", events.clone()),
                ("dropped", Json::Num(*dropped as f64)),
            ]),
            Response::Trace { spans, dropped } => Json::obj([
                ("type", Json::Str("trace".into())),
                ("spans", spans.clone()),
                ("dropped", Json::Num(*dropped as f64)),
            ]),
            Response::Cancelled { job } => Json::obj([
                ("type", Json::Str("cancelled".into())),
                ("job", Json::Str(job.to_string())),
            ]),
            Response::DrainStarted { running_jobs } => Json::obj([
                ("type", Json::Str("drain_started".into())),
                ("running_jobs", Json::Num(*running_jobs as f64)),
            ]),
            Response::Bye => Json::obj([("type", Json::Str("bye".into()))]),
            Response::Error {
                code,
                message,
                detail,
            } => {
                let mut members = vec![
                    ("type", Json::Str("error".into())),
                    ("code", Json::Str(code.as_str().into())),
                    ("message", Json::Str(message.clone())),
                ];
                if let Some(detail) = detail {
                    members.push(("detail", detail.clone()));
                }
                Json::obj(members)
            }
        }
    }

    /// Decodes a frame document.
    pub fn from_json(value: &Json) -> Result<Self, WireError> {
        let kind = value
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| WireError("missing response 'type'".into()))?;
        match kind {
            "pong" => Ok(Response::Pong(ServerInfo::from_json(value)?)),
            "submitted" => Ok(Response::Submitted {
                job: get_u64(value, "job")?,
                total_cells: get_u64(value, "total_cells")? as usize,
                fingerprint: get_u64(value, "fingerprint")?,
                priority: {
                    let name = get_str(value, "priority")?;
                    Priority::parse(name)
                        .ok_or_else(|| WireError(format!("unknown priority '{name}'")))?
                },
            }),
            "status" => Ok(Response::Status(JobStatus {
                job: get_u64(value, "job")?,
                state: {
                    let name = get_str(value, "state")?;
                    JobState::parse(name)
                        .ok_or_else(|| WireError(format!("unknown job state '{name}'")))?
                },
                priority: {
                    let name = get_str(value, "priority")?;
                    Priority::parse(name)
                        .ok_or_else(|| WireError(format!("unknown priority '{name}'")))?
                },
                client: get_str(value, "client")?.to_string(),
                completed_cells: get_u64(value, "completed_cells")? as usize,
                total_cells: get_u64(value, "total_cells")? as usize,
                executed_trials: get_u64(value, "executed_trials")? as usize,
                preemptions: get_u64(value, "preemptions")?,
                evicted: get_bool(value, "evicted")?,
                error: match value.get("error") {
                    None | Some(Json::Null) => None,
                    Some(v) => Some(
                        v.as_str()
                            .ok_or_else(|| WireError("'error' must be a string or null".into()))?
                            .to_string(),
                    ),
                },
            })),
            "cell" => Ok(Response::Cell {
                job: get_u64(value, "job")?,
                index: get_u64(value, "index")? as usize,
                cell: get(value, "cell")?.clone(),
            }),
            "end" => Ok(Response::End {
                job: get_u64(value, "job")?,
                state: {
                    let name = get_str(value, "state")?;
                    JobState::parse(name)
                        .ok_or_else(|| WireError(format!("unknown job state '{name}'")))?
                },
                streamed_cells: get_u64(value, "streamed_cells")? as usize,
            }),
            "result" => Ok(Response::ResultDoc {
                job: get_u64(value, "job")?,
                document: get(value, "document")?.clone(),
            }),
            "poff" => {
                Ok(Response::Poff(PoffReply {
                    poff_mhz: match get(value, "poff_mhz")? {
                        Json::Null => None,
                        v => Some(v.as_f64().filter(|v| v.is_finite()).ok_or_else(|| {
                            WireError("'poff_mhz' must be null or a number".into())
                        })?),
                    },
                    cells_evaluated: get_u64(value, "cells_evaluated")? as usize,
                    evaluated: value
                        .get("evaluated")
                        .and_then(Json::as_arr)
                        .ok_or_else(|| WireError("'evaluated' must be an array".into()))?
                        .iter()
                        .map(|point| {
                            Ok(PoffPoint {
                                freq_mhz: get_finite(point, "freq_mhz")?,
                                correct_fraction: get_finite(point, "correct_fraction")?,
                                finished_fraction: get_finite(point, "finished_fraction")?,
                            })
                        })
                        .collect::<Result<_, WireError>>()?,
                }))
            }
            "metrics" => Ok(Response::Metrics {
                snapshot: get(value, "snapshot")?.clone(),
            }),
            "events" => Ok(Response::Events {
                events: get(value, "events")?.clone(),
                dropped: get_u64(value, "dropped")?,
            }),
            "trace" => Ok(Response::Trace {
                spans: get(value, "spans")?.clone(),
                dropped: get_u64(value, "dropped")?,
            }),
            "cancelled" => Ok(Response::Cancelled {
                job: get_u64(value, "job")?,
            }),
            "drain_started" => Ok(Response::DrainStarted {
                running_jobs: get_u64(value, "running_jobs")? as usize,
            }),
            "bye" => Ok(Response::Bye),
            "error" => Ok(Response::Error {
                code: {
                    let name = get_str(value, "code")?;
                    ErrorCode::parse(name)
                        .ok_or_else(|| WireError(format!("unknown error code '{name}'")))?
                },
                message: get_str(value, "message")?.to_string(),
                detail: match value.get("detail") {
                    None | Some(Json::Null) => None,
                    Some(detail) => Some(detail.clone()),
                },
            }),
            other => Err(WireError(format!("unknown response type '{other}'"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{BenchmarkDef, BudgetDef, CellDef};
    use std::io::BufReader;

    fn demo_def() -> CampaignDef {
        let mut def = CampaignDef::new("proto", 42);
        let b = def.add_benchmark(BenchmarkDef::Dijkstra { nodes: 10, seed: 1 });
        def.cells.push(CellDef {
            benchmark: b,
            model: FaultModel::StaWithNoise,
            freq_mhz: 700.0,
            vdd: 0.7,
            noise_sigma_mv: 5.0,
            budget: BudgetDef::fixed(3),
        });
        def
    }

    #[test]
    fn requests_round_trip_through_frames() {
        let requests = [
            Request::Ping,
            Request::Submit(SubmitRequest::new(demo_def())),
            Request::Submit(SubmitRequest {
                spec: demo_def(),
                priority: Priority::High,
                client: Some("alice".into()),
                idempotency_key: None,
            }),
            Request::Submit(SubmitRequest {
                spec: demo_def(),
                priority: Priority::Normal,
                client: Some("alice".into()),
                idempotency_key: Some("alice-campaign-1".into()),
            }),
            Request::Status(7),
            Request::Stream(7),
            Request::Result(u64::MAX),
            Request::Poff(PoffRequest {
                benchmark: BenchmarkDef::Median {
                    values: 21,
                    seed: 3,
                },
                model: FaultModel::StaPeriodViolation,
                vdd: 0.7,
                noise_sigma_mv: 0.0,
                lo_mhz: 600.0,
                hi_mhz: 900.0,
                resolution_mhz: 5.0,
                trials: 4,
                seed: 11,
            }),
            Request::Metrics,
            Request::Events {
                limit: None,
                job: None,
            },
            Request::Events {
                limit: Some(25),
                job: Some(7),
            },
            Request::Trace {
                limit: None,
                job: None,
            },
            Request::Trace {
                limit: Some(500),
                job: Some(7),
            },
            Request::Cancel(7),
            Request::Drain,
            Request::Shutdown,
        ];
        // All frames through one pipe, in order.
        let mut buf = Vec::new();
        for req in &requests {
            write_frame(&mut buf, &req.to_json()).expect("writes");
        }
        assert_eq!(buf.iter().filter(|&&b| b == b'\n').count(), requests.len());

        let mut reader = BufReader::new(buf.as_slice());
        for req in &requests {
            let frame = read_frame(&mut reader)
                .expect("io ok")
                .expect("not eof")
                .expect("parses");
            let back = Request::from_json(&frame).expect("decodes");
            assert_eq!(&back, req);
        }
        assert!(
            read_frame(&mut reader).expect("io ok").is_none(),
            "clean EOF"
        );
    }

    #[test]
    fn responses_round_trip_through_json() {
        use crate::jobs::{JobState, JobStatus};
        let responses = [
            Response::Pong(ServerInfo {
                v: PROTOCOL_VERSION,
                study_fingerprint: u64::MAX,
                sta_limit_mhz: 707.25,
                nominal_vdd: 0.7,
                voltages: vec![0.7, 0.8],
                characterization_cache_hit: true,
                jobs: 3,
                running_jobs: 2,
                max_concurrent_jobs: 2,
                threads_per_job: 4,
                max_queued_per_client: Some(8),
                max_running_per_client: None,
                result_cap_bytes: Some(1 << 20),
                retained_result_bytes: 12345,
                metrics_enabled: true,
                preemptions_total: 4,
                evictions_total: 1,
                events_dropped_total: 2,
                draining: true,
            }),
            Response::Submitted {
                job: 7,
                total_cells: 4,
                fingerprint: 0xDEAD_BEEF,
                priority: Priority::High,
            },
            Response::Status(JobStatus {
                job: 7,
                state: JobState::Running,
                priority: Priority::Low,
                client: "alice".into(),
                completed_cells: 2,
                total_cells: 4,
                executed_trials: 60,
                preemptions: 1,
                evicted: false,
                error: None,
            }),
            Response::Cell {
                job: 7,
                index: 0,
                cell: Json::obj([("cell", Json::Num(0.0))]),
            },
            Response::End {
                job: 7,
                state: JobState::Done,
                streamed_cells: 4,
            },
            Response::ResultDoc {
                job: 7,
                document: Json::obj([("version", Json::Num(1.0))]),
            },
            Response::Poff(PoffReply {
                poff_mhz: Some(725.5),
                cells_evaluated: 5,
                evaluated: vec![PoffPoint {
                    freq_mhz: 725.5,
                    correct_fraction: 0.5,
                    finished_fraction: 1.0,
                }],
            }),
            Response::Poff(PoffReply {
                poff_mhz: None,
                cells_evaluated: 2,
                evaluated: Vec::new(),
            }),
            Response::Metrics {
                snapshot: Json::obj([(
                    "families",
                    Json::Arr(vec![Json::obj([
                        ("name", Json::Str("sfi_trials_total".into())),
                        ("kind", Json::Str("counter".into())),
                    ])]),
                )]),
            },
            Response::Events {
                events: Json::Arr(vec![Json::obj([
                    ("kind", Json::Str("job_submitted".into())),
                    ("ts_us", Json::Str("12".into())),
                ])]),
                dropped: 3,
            },
            Response::Trace {
                spans: Json::Arr(vec![Json::obj([
                    (
                        "args",
                        Json::obj([("id", Json::Num(9.0)), ("parent", Json::Num(0.0))]),
                    ),
                    ("cat", Json::Str("engine".into())),
                    ("dur", Json::Num(42.0)),
                    ("name", Json::Str("trial".into())),
                    ("ph", Json::Str("X".into())),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(2.0)),
                    ("ts", Json::Num(12.0)),
                ])]),
                dropped: 1,
            },
            Response::Cancelled { job: 7 },
            Response::DrainStarted { running_jobs: 2 },
            Response::Bye,
            Response::error(ErrorCode::QuotaExceeded, "client 'alice' is full"),
            Response::error(ErrorCode::Draining, "the daemon is draining"),
        ];
        for response in &responses {
            let doc = response.to_json();
            let text = doc.to_string();
            let parsed = Json::parse(&text).expect("parses");
            let back = Response::from_json(&parsed).expect("decodes");
            assert_eq!(&back, response, "{text}");
        }
    }

    #[test]
    fn every_error_code_round_trips() {
        for code in [
            ErrorCode::BadRequest,
            ErrorCode::UnknownJob,
            ErrorCode::QuotaExceeded,
            ErrorCode::ResultEvicted,
            ErrorCode::NoResult,
            ErrorCode::ResultTooLarge,
            ErrorCode::ShuttingDown,
            ErrorCode::Draining,
        ] {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
        }
        assert_eq!(ErrorCode::parse("nope"), None);
    }

    #[test]
    fn submit_rejects_bad_priority_and_client() {
        let spec = demo_def().to_json();
        let bad_priority = Json::obj([
            ("type", Json::Str("submit".into())),
            ("spec", spec.clone()),
            ("priority", Json::Str("urgent".into())),
        ]);
        assert!(Request::from_json(&bad_priority).is_err());
        let bad_client = Json::obj([
            ("type", Json::Str("submit".into())),
            ("spec", spec.clone()),
            ("client", Json::Str("x".repeat(MAX_CLIENT_ID_BYTES + 1))),
        ]);
        assert!(Request::from_json(&bad_client).is_err());
        let empty_client = Json::obj([
            ("type", Json::Str("submit".into())),
            ("spec", spec),
            ("client", Json::Str(String::new())),
        ]);
        assert!(Request::from_json(&empty_client).is_err());
    }

    #[test]
    fn campaign_spec_survives_the_submit_frame() {
        // The acceptance-relevant property: a spec pushed through the
        // protocol framing instantiates to the same campaign fingerprint.
        let def = demo_def();
        let direct = def.instantiate().expect("instantiates");

        let mut buf = Vec::new();
        write_frame(
            &mut buf,
            &Request::Submit(SubmitRequest::new(def)).to_json(),
        )
        .expect("writes");
        let mut reader = BufReader::new(buf.as_slice());
        let frame = read_frame(&mut reader).unwrap().unwrap().unwrap();
        let Request::Submit(received) = Request::from_json(&frame).unwrap() else {
            panic!("not a submit");
        };
        let remote = received.spec.instantiate().expect("instantiates");
        assert_eq!(remote.fingerprint(), direct.fingerprint());
        assert_eq!(received.priority, Priority::Normal);
        assert_eq!(received.client, None);
    }

    #[test]
    fn malformed_frames_are_reported_not_fatal() {
        let mut reader = BufReader::new("{\"type\":}\n{\"type\":\"ping\"}\n".as_bytes());
        let bad = read_frame(&mut reader).expect("io ok").expect("not eof");
        assert!(bad.is_err(), "malformed frame yields a wire error");
        // The reader is still synchronized: the next frame parses.
        let good = read_frame(&mut reader).unwrap().unwrap().unwrap();
        assert_eq!(Request::from_json(&good), Ok(Request::Ping));
    }

    #[test]
    fn blank_lines_are_skipped() {
        let mut reader = BufReader::new("\n  \n{\"type\":\"ping\"}\n".as_bytes());
        let frame = read_frame(&mut reader).unwrap().unwrap().unwrap();
        assert_eq!(Request::from_json(&frame), Ok(Request::Ping));
    }

    #[test]
    fn oversized_frames_are_io_errors() {
        let huge = format!("{{\"type\":\"{}\"}}\n", "x".repeat(MAX_FRAME_BYTES));
        let mut reader = BufReader::new(huge.as_bytes());
        assert!(read_frame(&mut reader).is_err());
    }
}
