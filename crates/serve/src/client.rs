//! Typed client for the serve protocol.
//!
//! [`Client`] wraps one TCP connection and exposes each protocol request
//! as a method.  All methods are synchronous: one request, one response
//! (or, for [`Client::stream`], one response per cell until the job
//! ends).  The same connection can issue any number of requests.
//!
//! Responses are decoded through the shared [`Response`] frame type, so
//! the client accepts exactly the vocabulary `docs/PROTOCOL.md`
//! specifies; server `error` frames surface as [`ClientError::Server`]
//! with their machine-readable [`ErrorCode`].
//!
//! For fault-tolerant callers, [`RetryingClient`] layers a
//! [`RetryPolicy`] — capped exponential backoff with deterministic
//! jitter — over a lazily (re)established connection: transport and
//! transient server errors (`shutting_down`, `draining`) trigger a
//! reconnect and retry, while permanent rejections (`bad_request`,
//! `quota_exceeded`, …) surface immediately.  Submissions through it
//! require an idempotency key, so a retried submit can never double-run
//! a campaign.

use crate::jobs::{JobStatus, Priority};
use crate::protocol::{
    read_frame, write_frame, ErrorCode, PoffReply, PoffRequest, Request, Response, ServerInfo,
    SubmitRequest,
};
use crate::wire::{CampaignDef, WireError};
use sfi_core::json::Json;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

pub use crate::jobs::JobState;

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server closed or sent something unintelligible.
    Protocol(String),
    /// The server answered with an `error` frame.
    Server {
        /// Machine-readable error classification.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
        /// Structured rejection payload, when the server sent one (e.g.
        /// the analyzer findings of a refused guest program).
        detail: Option<Json>,
    },
}

impl ClientError {
    /// The error code of a server-side rejection, if this is one.
    pub fn code(&self) -> Option<ErrorCode> {
        match self {
            ClientError::Server { code, .. } => Some(*code),
            _ => None,
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(err) => write!(f, "transport error: {err}"),
            ClientError::Protocol(message) => write!(f, "protocol error: {message}"),
            ClientError::Server { code, message, .. } => {
                write!(f, "server error ({code}): {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(err: io::Error) -> Self {
        ClientError::Io(err)
    }
}

/// A `submitted` acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobTicket {
    /// The job id for status/stream/result/cancel requests.
    pub job: u64,
    /// Number of cells the campaign will run.
    pub total_cells: usize,
    /// The scheduling class the job was accepted at.
    pub priority: Priority,
}

/// A synchronous protocol client over one TCP connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a daemon.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { reader, writer })
    }

    /// Sends one request frame.
    fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        write_frame(&mut self.writer, &request.to_json())?;
        Ok(())
    }

    /// Receives one response frame, surfacing `error` frames as
    /// [`ClientError::Server`].
    fn receive(&mut self) -> Result<Response, ClientError> {
        let frame = match read_frame(&mut self.reader)? {
            None => return Err(ClientError::Protocol("server closed the connection".into())),
            Some(Ok(frame)) => frame,
            Some(Err(WireError(message))) => return Err(ClientError::Protocol(message)),
        };
        match Response::from_json(&frame) {
            Ok(Response::Error {
                code,
                message,
                detail,
            }) => Err(ClientError::Server {
                code,
                message,
                detail,
            }),
            Ok(response) => Ok(response),
            Err(WireError(message)) => Err(ClientError::Protocol(message)),
        }
    }

    fn unexpected<T>(context: &str, response: &Response) -> Result<T, ClientError> {
        Err(ClientError::Protocol(format!(
            "expected a '{context}' response, got {response:?}"
        )))
    }

    /// Probes the daemon and returns its self-description.
    pub fn ping(&mut self) -> Result<ServerInfo, ClientError> {
        self.send(&Request::Ping)?;
        match self.receive()? {
            Response::Pong(info) => Ok(info),
            other => Self::unexpected("pong", &other),
        }
    }

    /// Submits a campaign at `normal` priority under the daemon's default
    /// client id; returns the job ticket.
    pub fn submit(&mut self, def: &CampaignDef) -> Result<JobTicket, ClientError> {
        self.submit_with(def, Priority::Normal, None)
    }

    /// Submits a campaign with an explicit scheduling class and client id
    /// (the id quotas are accounted against).
    pub fn submit_with(
        &mut self,
        def: &CampaignDef,
        priority: Priority,
        client: Option<&str>,
    ) -> Result<JobTicket, ClientError> {
        self.submit_keyed(def, priority, client, None)
    }

    /// [`submit_with`](Self::submit_with), carrying an idempotency key:
    /// resubmitting the same `(client, key)` pair returns the original
    /// job instead of creating a duplicate, which makes retrying a
    /// submit whose acknowledgement was lost safe.
    pub fn submit_keyed(
        &mut self,
        def: &CampaignDef,
        priority: Priority,
        client: Option<&str>,
        idempotency_key: Option<&str>,
    ) -> Result<JobTicket, ClientError> {
        self.send(&Request::Submit(SubmitRequest {
            spec: def.clone(),
            priority,
            client: client.map(str::to_string),
            idempotency_key: idempotency_key.map(str::to_string),
        }))?;
        match self.receive()? {
            Response::Submitted {
                job,
                total_cells,
                priority,
                ..
            } => Ok(JobTicket {
                job,
                total_cells,
                priority,
            }),
            other => Self::unexpected("submitted", &other),
        }
    }

    /// Polls one job's status.
    pub fn status(&mut self, job: u64) -> Result<JobStatus, ClientError> {
        self.send(&Request::Status(job))?;
        match self.receive()? {
            Response::Status(status) => Ok(status),
            other => Self::unexpected("status", &other),
        }
    }

    /// Streams the job's per-cell results as they complete, invoking
    /// `on_cell` for every cell document; returns the job's final state
    /// (`"done"`, `"failed"` or `"cancelled"`).
    pub fn stream(
        &mut self,
        job: u64,
        mut on_cell: impl FnMut(&Json),
    ) -> Result<String, ClientError> {
        self.send(&Request::Stream(job))?;
        loop {
            match self.receive()? {
                Response::Cell { cell, .. } => on_cell(&cell),
                Response::End { state, .. } => return Ok(state.as_str().to_string()),
                other => return Self::unexpected("cell' or 'end", &other),
            }
        }
    }

    /// Fetches a finished job's full result document (the one
    /// `CampaignResult::to_json` exports).
    pub fn result(&mut self, job: u64) -> Result<Json, ClientError> {
        self.send(&Request::Result(job))?;
        match self.receive()? {
            Response::ResultDoc { document, .. } => Ok(document),
            other => Self::unexpected("result", &other),
        }
    }

    /// Runs a PoFF bisection query on the daemon.
    pub fn poff(&mut self, request: &PoffRequest) -> Result<PoffReply, ClientError> {
        self.send(&Request::Poff(request.clone()))?;
        match self.receive()? {
            Response::Poff(reply) => Ok(reply),
            other => Self::unexpected("poff", &other),
        }
    }

    /// Fetches a point-in-time snapshot of the daemon's metrics registry
    /// (the `snapshot` document of the `metrics` frame).
    pub fn metrics(&mut self) -> Result<Json, ClientError> {
        self.send(&Request::Metrics)?;
        match self.receive()? {
            Response::Metrics { snapshot } => Ok(snapshot),
            other => Self::unexpected("metrics", &other),
        }
    }

    /// Fetches recent structured events (oldest first) and the cumulative
    /// overflow-drop count; both arguments are optional on the wire.
    pub fn events(
        &mut self,
        limit: Option<u64>,
        job: Option<u64>,
    ) -> Result<(Json, u64), ClientError> {
        self.send(&Request::Events { limit, job })?;
        match self.receive()? {
            Response::Events { events, dropped } => Ok((events, dropped)),
            other => Self::unexpected("events", &other),
        }
    }

    /// Fetches recent trace records as Chrome trace-event objects (sorted
    /// by timestamp) and the cumulative store-overflow drop count; both
    /// arguments are optional on the wire.
    pub fn trace(
        &mut self,
        limit: Option<u64>,
        job: Option<u64>,
    ) -> Result<(Json, u64), ClientError> {
        self.send(&Request::Trace { limit, job })?;
        match self.receive()? {
            Response::Trace { spans, dropped } => Ok((spans, dropped)),
            other => Self::unexpected("trace", &other),
        }
    }

    /// Cancels a queued or running job.
    pub fn cancel(&mut self, job: u64) -> Result<(), ClientError> {
        self.send(&Request::Cancel(job))?;
        match self.receive()? {
            Response::Cancelled { .. } => Ok(()),
            other => Self::unexpected("cancelled", &other),
        }
    }

    /// Asks the daemon to shut down gracefully.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.send(&Request::Shutdown)?;
        match self.receive()? {
            Response::Bye => Ok(()),
            other => Self::unexpected("bye", &other),
        }
    }

    /// Asks the daemon to drain: stop accepting submits, let running
    /// jobs finish (journaling queued ones for a successor), then exit.
    /// Returns the number of jobs that were running when the drain began.
    pub fn drain(&mut self) -> Result<usize, ClientError> {
        self.send(&Request::Drain)?;
        match self.receive()? {
            Response::DrainStarted { running_jobs } => Ok(running_jobs),
            other => Self::unexpected("drain_started", &other),
        }
    }

    /// Polls `status` until the job reaches a terminal state.
    pub fn wait(&mut self, job: u64) -> Result<JobStatus, ClientError> {
        loop {
            let status = self.status(job)?;
            if status.is_terminal() {
                return Ok(status);
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
    }
}

/// When and how [`RetryingClient`] retries a failed request.
///
/// Backoff is capped exponential with *equal jitter*: the wait before
/// attempt `n` is half the capped exponential delay plus a deterministic
/// pseudo-random fraction of the other half, derived from `jitter_seed`
/// — so tests (and bug reports) reproduce the exact retry schedule.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (the first try included) before giving up.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base_delay: Duration,
    /// Cap on any single backoff wait.
    pub max_delay: Duration,
    /// Overall wall-clock budget across all attempts and waits; an
    /// operation that would sleep past it fails instead (`None` = no
    /// deadline).
    pub deadline: Option<Duration>,
    /// Seed of the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
            deadline: None,
            jitter_seed: 0x5F12_8DF1,
        }
    }
}

/// SplitMix64: one 64-bit mixing step, the standard seed expander.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl RetryPolicy {
    /// A fast schedule for tests: tight delays, no deadline.
    pub fn fast_for_tests() -> Self {
        RetryPolicy {
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(10),
            ..RetryPolicy::default()
        }
    }

    /// The backoff before retry `attempt` (1-based), jitter included.
    /// Pure: the same policy and attempt always produce the same delay.
    pub fn delay_for(&self, attempt: u32) -> Duration {
        let shift = attempt.saturating_sub(1).min(16);
        let exponential = self.base_delay.saturating_mul(1u32 << shift);
        let capped = exponential.min(self.max_delay).max(Duration::from_nanos(2));
        let nanos = capped.as_nanos() as u64;
        let jitter = splitmix64(self.jitter_seed ^ u64::from(attempt)) % (nanos / 2 + 1);
        Duration::from_nanos(nanos - nanos / 2 + jitter)
    }

    /// Whether `error` is worth retrying: transport and protocol
    /// failures (the connection may be poisoned mid-frame) and the
    /// transient server states are; every other server rejection —
    /// `bad_request`, `quota_exceeded`, `unknown_job`, … — is permanent
    /// and surfaces immediately.
    pub fn retryable(error: &ClientError) -> bool {
        match error {
            ClientError::Io(_) | ClientError::Protocol(_) => true,
            ClientError::Server { code, .. } => {
                matches!(code, ErrorCode::ShuttingDown | ErrorCode::Draining)
            }
        }
    }
}

/// A [`Client`] wrapper that transparently reconnects and retries under
/// a [`RetryPolicy`].
///
/// The connection is established lazily and dropped after any failure
/// (a half-written frame poisons it), so every retry starts on a fresh
/// socket.  [`RetryingClient::submit`] *requires* an idempotency key:
/// without one, a resubmit after a lost acknowledgement could double-run
/// the campaign.
pub struct RetryingClient {
    addr: SocketAddr,
    policy: RetryPolicy,
    conn: Option<Client>,
}

impl RetryingClient {
    /// Creates a client for `addr`; no connection is made until the
    /// first request.
    pub fn new(addr: impl ToSocketAddrs, policy: RetryPolicy) -> io::Result<RetryingClient> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolves to nothing")
        })?;
        Ok(RetryingClient {
            addr,
            policy,
            conn: None,
        })
    }

    /// The retry policy in force.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Runs `op` against a live connection, reconnecting and retrying
    /// per the policy.  Only the *first* error classification matters:
    /// a permanent rejection returns immediately, connection state
    /// dropped either way.
    fn with_retry<T>(
        &mut self,
        mut op: impl FnMut(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let start = Instant::now();
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let result = match self.connection() {
                Ok(client) => op(client),
                Err(err) => Err(ClientError::Io(err)),
            };
            let error = match result {
                Ok(value) => return Ok(value),
                Err(error) => error,
            };
            // Whatever happened, this connection is suspect.
            self.conn = None;
            if !RetryPolicy::retryable(&error) || attempt >= self.policy.max_attempts {
                return Err(error);
            }
            let delay = self.policy.delay_for(attempt);
            if let Some(deadline) = self.policy.deadline {
                if start.elapsed() + delay >= deadline {
                    return Err(error);
                }
            }
            sfi_obs::metrics().client_retries.inc();
            std::thread::sleep(delay);
        }
    }

    fn connection(&mut self) -> io::Result<&mut Client> {
        if self.conn.is_none() {
            self.conn = Some(Client::connect(self.addr)?);
        }
        Ok(self.conn.as_mut().expect("just connected"))
    }

    /// [`Client::ping`], with retries.
    pub fn ping(&mut self) -> Result<ServerInfo, ClientError> {
        self.with_retry(|client| client.ping())
    }

    /// Submits a campaign idempotently: the key makes resubmission after
    /// a lost acknowledgement return the original job, so the whole
    /// operation is safe to retry.
    pub fn submit(
        &mut self,
        def: &CampaignDef,
        priority: Priority,
        client: Option<&str>,
        idempotency_key: &str,
    ) -> Result<JobTicket, ClientError> {
        self.with_retry(|conn| conn.submit_keyed(def, priority, client, Some(idempotency_key)))
    }

    /// [`Client::status`], with retries.
    pub fn status(&mut self, job: u64) -> Result<JobStatus, ClientError> {
        self.with_retry(|client| client.status(job))
    }

    /// [`Client::result`], with retries.
    pub fn result(&mut self, job: u64) -> Result<Json, ClientError> {
        self.with_retry(|client| client.result(job))
    }

    /// [`Client::wait`], with retries around each status poll.
    pub fn wait(&mut self, job: u64) -> Result<JobStatus, ClientError> {
        loop {
            let status = self.status(job)?;
            if status.is_terminal() {
                return Ok(status);
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// [`Client::stream`], with retries.  A retried stream restarts from
    /// the beginning on the wire, but cells already delivered to
    /// `on_cell` are skipped by their stream index, so the callback sees
    /// every cell exactly once even across reconnects.
    pub fn stream(
        &mut self,
        job: u64,
        mut on_cell: impl FnMut(&Json),
    ) -> Result<String, ClientError> {
        let mut next = 0usize;
        self.with_retry(|client| {
            client.send(&Request::Stream(job))?;
            loop {
                match client.receive()? {
                    Response::Cell { index, cell, .. } => {
                        if index >= next {
                            on_cell(&cell);
                            next = index + 1;
                        }
                    }
                    Response::End { state, .. } => return Ok(state.as_str().to_string()),
                    other => return Client::unexpected("cell' or 'end", &other),
                }
            }
        })
    }

    /// [`Client::drain`], with retries on transport failures (the drain
    /// request itself is idempotent server-side).
    pub fn drain(&mut self) -> Result<usize, ClientError> {
        self.with_retry(|client| client.drain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_backoff_schedule_is_deterministic_and_capped() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_millis(400),
            deadline: None,
            jitter_seed: 7,
        };
        for attempt in 1..=7 {
            assert_eq!(
                policy.delay_for(attempt),
                policy.delay_for(attempt),
                "attempt {attempt} reproduces"
            );
        }
        for attempt in 1..=20 {
            let delay = policy.delay_for(attempt);
            assert!(delay <= policy.max_delay, "attempt {attempt}: {delay:?}");
            let floor = policy
                .base_delay
                .saturating_mul(1 << (attempt - 1).min(16))
                .min(policy.max_delay);
            assert!(
                delay >= floor / 2,
                "attempt {attempt}: {delay:?} under half"
            );
        }
        let other_seed = RetryPolicy {
            jitter_seed: 8,
            ..policy.clone()
        };
        assert!(
            (1..=7).any(|a| policy.delay_for(a) != other_seed.delay_for(a)),
            "different seeds produce different schedules"
        );
    }

    #[test]
    fn transient_errors_retry_and_permanent_ones_do_not() {
        let transient = [
            ClientError::Io(io::Error::new(io::ErrorKind::ConnectionReset, "reset")),
            ClientError::Protocol("server closed the connection".into()),
            ClientError::Server {
                code: ErrorCode::ShuttingDown,
                message: "going down".into(),
                detail: None,
            },
            ClientError::Server {
                code: ErrorCode::Draining,
                message: "draining".into(),
                detail: None,
            },
        ];
        for error in &transient {
            assert!(RetryPolicy::retryable(error), "{error} should retry");
        }
        let permanent = [
            ErrorCode::BadRequest,
            ErrorCode::QuotaExceeded,
            ErrorCode::UnknownJob,
            ErrorCode::NoResult,
            ErrorCode::ResultEvicted,
            ErrorCode::ResultTooLarge,
        ];
        for code in permanent {
            let error = ClientError::Server {
                code,
                message: "no".into(),
                detail: None,
            };
            assert!(!RetryPolicy::retryable(&error), "{error} must not retry");
        }
    }
}
