//! Observability substrate of the sfi workspace.
//!
//! The statistical machinery of the reproduction — PoFF estimates,
//! failure-probability grids, the serve-mode scheduler — is only as
//! trustworthy as the campaign pipeline producing it, so this crate gives
//! every layer one cheap, always-on place to report what it is doing:
//!
//! * [`metric`] — lock-free primitives: atomic [`Counter`]/[`Gauge`], the
//!   per-thread [`ShardedCounter`] for the ISS trial hot path (one
//!   uncontended relaxed add per update, folded on read), and fixed-bucket
//!   [`Histogram`]s with Prometheus `le` semantics.
//! * [`registry`] — the process-wide [`Metrics`] struct: one field per
//!   family, built once ([`metrics`]), sampled without locks
//!   ([`Metrics::snapshot`]).  Families cover the three layers that
//!   matter: the ISS (trials, cycles, per-model injected faults, watchdog
//!   trips), the campaign engine (cells, adaptive-stop savings, worker time),
//!   the append logs (journal and checkpoint records) and the serve
//!   scheduler (queue depths, quotas,
//!   preemptions, evictions, cache hits, wait/run latencies).
//! * [`event`] — a bounded ring ([`events`]) of structured [`Event`]s with
//!   monotonic timestamps and per-job/per-cell span ids, for post-mortem
//!   of cancelled or evicted jobs.
//! * [`span`] — lightweight start/stop spans ([`Span`]) with parent
//!   links, buffered per thread and drained into the bounded process-wide
//!   trace store ([`trace`]), plus sampled counter tracks and the one
//!   trace serializer, [`chrome_trace_json`]: Chrome trace-event JSON,
//!   loadable in `chrome://tracing` / Perfetto, which every trace surface
//!   of the daemon (the `trace` frame, `GET /trace`) carries.
//! * [`clock`] — the shared monotonic clock behind every timestamp.
//! * [`prometheus`] — text exposition rendering of a snapshot.  Alerting
//!   happens outside the process: `docs/prometheus/sfi-alerts.rules.yml`
//!   holds Prometheus rules over the exported families.
//!
//! The overhead contract: nothing in this crate takes a lock on a
//! per-trial path, and per-trial updates are a handful of relaxed atomic
//! adds on thread-private cache lines — recording a span is two clock
//! reads and a push onto a thread-private buffer, and the trace-store
//! mutex is only touched at coarse boundaries (buffer overflow, cell
//! completion, worker exit).  The repository benchmark, `perfbench/`,
//! measures the result: its workloads run with these counters and spans
//! live, A/B against the parent commit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod event;
pub mod metric;
pub mod prometheus;
pub mod registry;
pub mod span;

pub use event::{Event, EventRing, FieldValue};
pub use metric::{Counter, Gauge, Histogram, HistogramSnapshot, ShardedCounter};
pub use registry::{
    events, metrics, Family, FamilyKind, Metrics, Sample, SampleValue, Snapshot,
    DEFAULT_EVENT_CAPACITY, FAULT_MODEL_LABELS, PRIORITY_LABELS,
};
pub use span::{
    chrome_trace_json, trace, CounterRecord, Span, SpanArgs, SpanRecord, TraceRecord, TraceStore,
    DEFAULT_TRACE_CAPACITY,
};
