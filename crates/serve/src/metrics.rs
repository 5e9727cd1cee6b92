//! The daemon's observability surface: JSON encodings of registry
//! snapshots and event rings for the `metrics`/`events` wire frames, and
//! the optional Prometheus text-exposition listener (`--metrics-addr`).
//!
//! The wire encoding follows the workspace JSON conventions: 64-bit
//! integers travel as decimal strings (JSON numbers are doubles and lose
//! precision past 2^53 — counters of simulated cycles get there), and
//! non-finite histogram bounds are spelled out (`"+Inf"`) because the
//! canonical encoder maps non-finite floats to `null`.

use sfi_core::json::Json;
use sfi_obs::{Event, FieldValue, Sample, SampleValue, Snapshot};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

/// Formats a histogram upper bound the way Prometheus spells `le` labels.
fn le_string(bound: f64) -> String {
    if bound.is_infinite() {
        "+Inf".into()
    } else {
        format!("{bound}")
    }
}

fn sample_to_json(sample: &Sample) -> Json {
    let labels = Json::obj(
        sample
            .labels
            .iter()
            .map(|(name, value)| (*name, Json::Str(value.clone())))
            .collect::<Vec<_>>(),
    );
    let value = match &sample.value {
        SampleValue::Counter(v) => Json::Str(v.to_string()),
        SampleValue::Gauge(v) => Json::Num(*v as f64),
        SampleValue::Histogram(h) => Json::obj([
            (
                "buckets",
                Json::Arr(
                    h.buckets
                        .iter()
                        .map(|&(le, count)| {
                            Json::obj([
                                ("le", Json::Str(le_string(le))),
                                ("count", Json::Str(count.to_string())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("sum", Json::Num(h.sum)),
            ("count", Json::Str(h.count.to_string())),
        ]),
    };
    Json::obj([("labels", labels), ("value", value)])
}

/// Encodes a registry snapshot as the `metrics` frame's `snapshot` member:
/// `{"families": [{"name", "help", "kind", "samples": [...]}]}`.
pub fn snapshot_to_json(snapshot: &Snapshot) -> Json {
    Json::obj([(
        "families",
        Json::Arr(
            snapshot
                .families
                .iter()
                .map(|family| {
                    Json::obj([
                        ("name", Json::Str(family.name.into())),
                        ("help", Json::Str(family.help.into())),
                        ("kind", Json::Str(family.kind.as_str().into())),
                        (
                            "samples",
                            Json::Arr(family.samples.iter().map(sample_to_json).collect()),
                        ),
                    ])
                })
                .collect(),
        ),
    )])
}

/// Encodes one structured event: timestamp, kind, optional job/cell span
/// ids, and the free-form fields.
pub fn event_to_json(event: &Event) -> Json {
    let mut pairs = vec![
        ("ts_us", Json::Str(event.ts_us.to_string())),
        ("kind", Json::Str(event.kind.into())),
    ];
    if let Some(job) = event.job {
        pairs.push(("job", Json::Str(job.to_string())));
    }
    if let Some(cell) = event.cell {
        pairs.push(("cell", Json::Str(cell.to_string())));
    }
    pairs.push((
        "fields",
        Json::obj(
            event
                .fields
                .iter()
                .map(|(name, value)| {
                    let encoded = match value {
                        FieldValue::U64(v) => Json::Str(v.to_string()),
                        FieldValue::F64(v) => Json::Num(*v),
                        FieldValue::Str(v) => Json::Str(v.clone()),
                    };
                    (*name, encoded)
                })
                .collect::<Vec<_>>(),
        ),
    ));
    Json::obj(pairs)
}

/// Encodes a batch of events (oldest first) as the `events` frame's
/// `events` member.
pub fn events_to_json(events: &[Event]) -> Json {
    Json::Arr(events.iter().map(event_to_json).collect())
}

/// A minimal HTTP/1.x listener serving the daemon's observability routes:
/// `GET /metrics` (Prometheus text exposition), `GET /healthz` (liveness
/// JSON) and `GET /trace` (Chrome trace-event JSON of the trace store).
/// Unknown paths get 404, non-GET methods 405, an over-long request line
/// 400 and over-long or too many header lines 431.
///
/// One thread, one connection at a time: scrapes are a few kilobytes every
/// few seconds, and the snapshot itself is lock-free, so there is nothing
/// to parallelize.  Dropping the listener stops the thread.
pub struct PrometheusListener {
    addr: SocketAddr,
    stopping: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl PrometheusListener {
    /// Binds `addr` (port 0 for ephemeral) and starts serving scrapes.
    pub fn start(addr: &str) -> io::Result<PrometheusListener> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stopping = Arc::new(AtomicBool::new(false));
        let handle = {
            let stopping = stopping.clone();
            thread::spawn(move || {
                for stream in listener.incoming() {
                    if stopping.load(Ordering::SeqCst) {
                        return;
                    }
                    let Ok(stream) = stream else { continue };
                    let _ = serve_scrape(stream);
                }
            })
        };
        Ok(PrometheusListener {
            addr,
            stopping,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for PrometheusListener {
    fn drop(&mut self) {
        self.stopping.store(true, Ordering::SeqCst);
        // Unblock the accept loop.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Longest request or header line the listener reads, terminator
/// included; a longer line is refused without reading the rest.
const MAX_HEAD_LINE_BYTES: usize = 8 * 1024;

/// Most header lines the listener reads before refusing the request.
const MAX_HEADER_LINES: usize = 64;

/// Reads one line of at most [`MAX_HEAD_LINE_BYTES`]; `None` when the
/// peer sent more than that without a newline.
fn read_head_line(reader: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut line = Vec::new();
    io::Read::take(&mut *reader, MAX_HEAD_LINE_BYTES as u64).read_until(b'\n', &mut line)?;
    if line.len() == MAX_HEAD_LINE_BYTES && !line.ends_with(b"\n") {
        return Ok(None);
    }
    Ok(Some(String::from_utf8_lossy(&line).into_owned()))
}

/// Answers one request: parses the request line, routes on method and
/// path, drains the remaining headers, writes one response and closes.
///
/// The listener serves one connection at a time, so a silent peer would
/// wedge every later scrape; a fixed deadline bounds the damage, and the
/// line caps bound what an untrusted peer can make it read.
fn serve_scrape(stream: TcpStream) -> io::Result<()> {
    let deadline = Some(std::time::Duration::from_secs(10));
    stream.set_read_timeout(deadline)?;
    stream.set_write_timeout(deadline)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let Some(request_line) = read_head_line(&mut reader)? else {
        return respond(
            &mut writer,
            "400 Bad Request",
            "text/plain; charset=utf-8",
            "request line too long\n",
        );
    };
    // Drain headers up to the blank line; none of them affect routing.
    let mut headers = 0;
    loop {
        match read_head_line(&mut reader)? {
            Some(line) if line.trim().is_empty() => break,
            Some(_) if headers < MAX_HEADER_LINES => headers += 1,
            _ => {
                return respond(
                    &mut writer,
                    "431 Request Header Fields Too Large",
                    "text/plain; charset=utf-8",
                    "request header fields too large\n",
                )
            }
        }
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    // Route on the path alone; ignore any `?query` suffix.
    let target = parts.next().unwrap_or("");
    let path = target.split('?').next().unwrap_or("");
    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed; only GET is served\n".to_string(),
        )
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                sfi_obs::prometheus::CONTENT_TYPE,
                sfi_obs::prometheus::render(&sfi_obs::metrics().snapshot()),
            ),
            "/healthz" => ("200 OK", "application/json", healthz_body()),
            "/trace" => (
                "200 OK",
                "application/json",
                sfi_obs::chrome_trace_json(&sfi_obs::span::trace().snapshot(usize::MAX, None)),
            ),
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "unknown path; try /metrics, /healthz or /trace\n".to_string(),
            ),
        }
    };
    respond(&mut writer, status, content_type, &body)
}

/// Writes one complete response and half-closes the connection.
fn respond(writer: &mut TcpStream, status: &str, content_type: &str, body: &str) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    writer.write_all(head.as_bytes())?;
    writer.write_all(body.as_bytes())?;
    writer.flush()?;
    writer.shutdown(std::net::Shutdown::Write)
}

/// The `/healthz` body: uptime plus scheduler liveness gauges, readable by
/// humans and machine-checkable by the CI smoke.
fn healthz_body() -> String {
    let metrics = sfi_obs::metrics();
    let queued: i64 = metrics
        .sched_queue_depth
        .iter()
        .map(sfi_obs::Gauge::get)
        .sum();
    let uptime = sfi_obs::clock::now_micros() as f64 / 1e6;
    let draining = metrics.draining.get() != 0;
    let doc = Json::obj([
        (
            "status",
            Json::Str(if draining { "draining" } else { "ok" }.into()),
        ),
        ("draining", Json::Bool(draining)),
        ("uptime_seconds", Json::Num((uptime * 1e3).round() / 1e3)),
        ("queued_jobs", Json::Num(queued as f64)),
        (
            "running_jobs",
            Json::Num(metrics.sched_running.get() as f64),
        ),
    ]);
    let mut text = doc.to_string();
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    #[test]
    fn snapshot_encodes_counters_as_decimal_strings() {
        sfi_obs::metrics().trials.inc();
        let doc = snapshot_to_json(&sfi_obs::metrics().snapshot());
        let families = doc.get("families").and_then(Json::as_arr).expect("array");
        let trials = families
            .iter()
            .find(|f| f.get("name").and_then(Json::as_str) == Some("sfi_trials_total"))
            .expect("sfi_trials_total present");
        assert_eq!(trials.get("kind").and_then(Json::as_str), Some("counter"));
        let samples = trials.get("samples").and_then(Json::as_arr).expect("array");
        let value = samples[0].get("value").expect("value");
        let count: u64 = value.as_str().expect("string").parse().expect("decimal");
        assert!(count >= 1);
    }

    #[test]
    fn histogram_bounds_spell_infinity() {
        sfi_obs::metrics().job_wait_seconds.observe(0.002);
        let doc = snapshot_to_json(&sfi_obs::metrics().snapshot());
        let text = doc.to_string();
        assert!(text.contains("\"+Inf\""), "{text}");
        // The canonical encoder must never see a non-finite number.
        assert!(Json::parse(&text).is_ok());
    }

    #[test]
    fn events_encode_span_ids_and_fields() {
        let event = Event::new("unit_test").job(7).cell(3).field("bytes", 42u64);
        let doc = event_to_json(&event);
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("unit_test"));
        assert_eq!(doc.get("job").and_then(Json::as_u64), Some(7));
        assert_eq!(doc.get("cell").and_then(Json::as_u64), Some(3));
        let fields = doc.get("fields").expect("fields");
        assert_eq!(fields.get("bytes").and_then(Json::as_u64), Some(42));
    }

    fn http_get(addr: std::net::SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connects");
        stream.write_all(request.as_bytes()).expect("writes");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("reads");
        response
    }

    #[test]
    fn listener_routes_healthz_trace_and_rejections() {
        let listener = PrometheusListener::start("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr();

        let health = http_get(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(health.starts_with("HTTP/1.1 200 OK\r\n"), "{health}");
        let body = health.split("\r\n\r\n").nth(1).expect("has body");
        let doc = Json::parse(body.trim()).expect("healthz is JSON");
        // The drain gauge is process-global and other tests may flip it,
        // so assert the status/draining members agree rather than pin one.
        let draining = doc.get("draining").and_then(Json::as_bool).expect("bool");
        assert_eq!(
            doc.get("status").and_then(Json::as_str),
            Some(if draining { "draining" } else { "ok" })
        );
        assert!(doc.get("uptime_seconds").and_then(Json::as_f64).unwrap() >= 0.0);
        assert!(doc.get("queued_jobs").is_some());
        assert!(doc.get("running_jobs").is_some());

        let trace = http_get(addr, "GET /trace HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(trace.starts_with("HTTP/1.1 200 OK\r\n"), "{trace}");
        let body = trace.split("\r\n\r\n").nth(1).expect("has body");
        assert!(Json::parse(body).expect("trace is JSON").as_arr().is_some());

        // Alert rules are a Prometheus rules file evaluated against
        // /metrics (docs/prometheus/sfi-alerts.rules.yml), not a route.
        let alerts = http_get(addr, "GET /alerts HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(alerts.starts_with("HTTP/1.1 404 Not Found\r\n"), "{alerts}");

        let missing = http_get(addr, "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(
            missing.starts_with("HTTP/1.1 404 Not Found\r\n"),
            "{missing}"
        );

        let posted = http_get(addr, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(
            posted.starts_with("HTTP/1.1 405 Method Not Allowed\r\n"),
            "{posted}"
        );
    }

    /// Everything the peer sends before EOF or a reset: a refused
    /// request may be reset after its response because the sender's
    /// surplus bytes were never read.
    fn read_until_closed(stream: &mut TcpStream) -> String {
        let mut bytes = Vec::new();
        let mut chunk = [0u8; 4096];
        while let Ok(n @ 1..) = stream.read(&mut chunk) {
            bytes.extend_from_slice(&chunk[..n]);
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    #[test]
    fn listener_refuses_overlong_lines_and_keeps_serving() {
        let listener = PrometheusListener::start("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr();

        // A 1 MiB request line with no newline is refused after the cap,
        // not read to the end.
        let mut stream = TcpStream::connect(addr).expect("connects");
        let writer = {
            let mut stream = stream.try_clone().expect("clones");
            thread::spawn(move || {
                let _ = stream.write_all(&vec![b'A'; 1 << 20]);
            })
        };
        let refused = read_until_closed(&mut stream);
        assert!(
            refused.starts_with("HTTP/1.1 400 Bad Request\r\n"),
            "{refused}"
        );
        writer.join().expect("writer exits");

        // The same cap applies to each header line, and the header count
        // is capped too.
        let long_header = format!("X-Pad: {}\r\n", "b".repeat(MAX_HEAD_LINE_BYTES));
        let many_headers = "X-Pad: b\r\n".repeat(MAX_HEADER_LINES + 1);
        for headers in [long_header, many_headers] {
            let mut stream = TcpStream::connect(addr).expect("connects");
            let request = format!("GET /healthz HTTP/1.1\r\n{headers}\r\n");
            let _ = stream.write_all(request.as_bytes());
            let refused = read_until_closed(&mut stream);
            assert!(
                refused.starts_with("HTTP/1.1 431 Request Header Fields Too Large\r\n"),
                "{refused}"
            );
        }

        let health = http_get(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(health.starts_with("HTTP/1.1 200 OK\r\n"), "{health}");
    }

    #[test]
    fn prometheus_listener_serves_a_wellformed_scrape() {
        sfi_obs::metrics().trials.inc();
        let listener = PrometheusListener::start("127.0.0.1:0").expect("binds");
        let mut stream = TcpStream::connect(listener.local_addr()).expect("connects");
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .expect("writes");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("reads");
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        assert!(response.contains(sfi_obs::prometheus::CONTENT_TYPE));
        let body = response.split("\r\n\r\n").nth(1).expect("has body");
        assert!(body.contains("# TYPE sfi_trials_total counter"), "{body}");
        assert!(body.contains("sfi_trials_total "), "{body}");
    }
}
