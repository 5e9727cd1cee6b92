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
use sfi_obs::{AlertStatus, Event, FieldValue, Sample, SampleValue, Snapshot, TraceRecord};
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

/// Encodes one trace record for the `trace` frame's `spans` member.
///
/// The `ph` member keeps the Chrome trace-event phase vocabulary (`"X"`
/// complete span, `"C"` counter series) so clients can convert records to
/// a `chrome://tracing` file mechanically; timestamps and span ids travel
/// as decimal strings per the workspace u64 convention.
fn trace_record_to_json(record: &TraceRecord) -> Json {
    match record {
        TraceRecord::Span(span) => {
            let mut pairs = vec![
                ("ph", Json::Str("X".into())),
                ("name", Json::Str(span.name.into())),
                ("cat", Json::Str(span.cat.into())),
                ("tid", Json::Num(span.tid as f64)),
                ("ts_us", Json::Str(span.start_us.to_string())),
                ("dur_us", Json::Str(span.dur_us.to_string())),
                ("id", Json::Str(span.id.to_string())),
                ("parent", Json::Str(span.parent.to_string())),
            ];
            if let Some(job) = span.job {
                pairs.push(("job", Json::Str(job.to_string())));
            }
            pairs.push((
                "args",
                Json::obj(
                    span.args
                        .iter()
                        .map(|(name, value)| {
                            let encoded = match value {
                                FieldValue::U64(v) => Json::Str(v.to_string()),
                                FieldValue::F64(v) => Json::Num(v),
                                FieldValue::Str(v) => Json::Str(v),
                            };
                            (name, encoded)
                        })
                        .collect::<Vec<_>>(),
                ),
            ));
            Json::obj(pairs)
        }
        TraceRecord::Counter(counter) => {
            let mut pairs = vec![
                ("ph", Json::Str("C".into())),
                ("name", Json::Str(counter.name.into())),
                ("tid", Json::Num(counter.tid as f64)),
                ("ts_us", Json::Str(counter.ts_us.to_string())),
            ];
            if let Some(job) = counter.job {
                pairs.push(("job", Json::Str(job.to_string())));
            }
            pairs.push((
                "series",
                Json::obj(
                    counter
                        .series
                        .iter()
                        .map(|&(name, value)| (name, Json::Num(value)))
                        .collect::<Vec<_>>(),
                ),
            ));
            Json::obj(pairs)
        }
    }
}

/// Encodes a batch of trace records (oldest first) as the `trace` frame's
/// `spans` member.
pub fn trace_to_json(records: &[TraceRecord]) -> Json {
    Json::Arr(records.iter().map(trace_record_to_json).collect())
}

/// Encodes alert-rule statuses as the `alerts` frame's `alerts` member.
pub fn alerts_to_json(statuses: &[AlertStatus]) -> Json {
    Json::Arr(
        statuses
            .iter()
            .map(|status| {
                Json::obj([
                    ("rule", Json::Str(status.rule.clone())),
                    ("family", Json::Str(status.family.clone())),
                    ("kind", Json::Str(status.kind.into())),
                    ("threshold", Json::Num(status.threshold)),
                    (
                        "value",
                        if status.value.is_finite() {
                            Json::Num(status.value)
                        } else {
                            Json::Null
                        },
                    ),
                    ("firing", Json::Bool(status.firing)),
                    (
                        "since_us",
                        match status.since_us {
                            Some(us) => Json::Str(us.to_string()),
                            None => Json::Null,
                        },
                    ),
                    ("fired_total", Json::Str(status.fired_total.to_string())),
                    (
                        "resolved_total",
                        Json::Str(status.resolved_total.to_string()),
                    ),
                ])
            })
            .collect(),
    )
}

/// A minimal HTTP/1.x listener serving the daemon's observability routes:
/// `GET /metrics` (Prometheus text exposition), `GET /healthz` (liveness
/// JSON), `GET /trace` (Chrome trace-event JSON of the trace store) and
/// `GET /alerts` (alert-rule statuses).  Unknown paths get 404, non-GET
/// methods 405.
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

/// Answers one request: parses the request line, routes on method and
/// path, drains the remaining headers, writes one response and closes.
///
/// The listener serves one connection at a time, so a silent peer would
/// wedge every later scrape; a fixed deadline bounds the damage.
fn serve_scrape(stream: TcpStream) -> io::Result<()> {
    let deadline = Some(std::time::Duration::from_secs(10));
    stream.set_read_timeout(deadline)?;
    stream.set_write_timeout(deadline)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain headers up to the blank line; none of them affect routing.
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 || line.trim().is_empty() {
            break;
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
            "/alerts" => {
                let statuses = sfi_obs::alerts::alerts().evaluate(&sfi_obs::metrics().snapshot());
                ("200 OK", "application/json", {
                    let mut text = alerts_to_json(&statuses).to_string();
                    text.push('\n');
                    text
                })
            }
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "unknown path; try /metrics, /healthz, /trace or /alerts\n".to_string(),
            ),
        }
    };
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    writer.write_all(head.as_bytes())?;
    writer.write_all(body.as_bytes())?;
    writer.flush()
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

    #[test]
    fn trace_records_encode_with_phase_discriminators() {
        use sfi_obs::{CounterRecord, SpanRecord};
        let records = [
            TraceRecord::Span(SpanRecord {
                id: 9,
                parent: 2,
                name: "trial",
                cat: "engine",
                tid: 3,
                job: Some(7),
                start_us: 100,
                dur_us: 42,
                args: [("cell", FieldValue::U64(1))].into(),
            }),
            TraceRecord::Counter(CounterRecord {
                name: "worker_utilization",
                tid: 3,
                job: None,
                ts_us: 150,
                series: vec![("busy_us", 40.0)],
            }),
        ];
        let doc = trace_to_json(&records);
        let arr = doc.as_arr().expect("array");
        assert_eq!(arr[0].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(arr[0].get("ts_us").and_then(Json::as_u64), Some(100));
        assert_eq!(arr[0].get("dur_us").and_then(Json::as_u64), Some(42));
        assert_eq!(arr[0].get("job").and_then(Json::as_u64), Some(7));
        let args = arr[0].get("args").expect("args");
        assert_eq!(args.get("cell").and_then(Json::as_u64), Some(1));
        assert_eq!(arr[1].get("ph").and_then(Json::as_str), Some("C"));
        assert!(arr[1].get("job").is_none(), "untagged counter omits job");
        let series = arr[1].get("series").expect("series");
        assert_eq!(series.get("busy_us").and_then(Json::as_f64), Some(40.0));
        // The document survives the canonical encoder round trip.
        assert!(Json::parse(&doc.to_string()).is_ok());
    }

    #[test]
    fn alert_statuses_encode_state_and_counters() {
        let statuses = [sfi_obs::AlertStatus {
            rule: "scheduler_queue_saturated".into(),
            family: "sfi_sched_queue_depth".into(),
            kind: "gauge_above",
            threshold: 8.0,
            value: 11.0,
            firing: true,
            since_us: Some(1_000_000),
            fired_total: 2,
            resolved_total: 1,
        }];
        let doc = alerts_to_json(&statuses);
        let status = &doc.as_arr().expect("array")[0];
        assert_eq!(status.get("firing").and_then(Json::as_bool), Some(true));
        assert_eq!(
            status.get("since_us").and_then(Json::as_u64),
            Some(1_000_000)
        );
        assert_eq!(status.get("fired_total").and_then(Json::as_u64), Some(2));
        assert_eq!(
            status.get("kind").and_then(Json::as_str),
            Some("gauge_above")
        );
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

        let alerts = http_get(addr, "GET /alerts HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(alerts.starts_with("HTTP/1.1 200 OK\r\n"), "{alerts}");
        let body = alerts.split("\r\n\r\n").nth(1).expect("has body");
        assert!(Json::parse(body.trim())
            .expect("alerts is JSON")
            .as_arr()
            .is_some());

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
