//! Lightweight span tracing with Chrome trace-event export.
//!
//! A [`Span`] is an RAII guard: it stamps a monotonic start time at
//! construction and, when dropped, turns into a [`SpanRecord`] carrying
//! its duration, parent link and free-form args.  Records first land in a
//! small **per-thread buffer** (a plain `Vec` push, no locks), which is
//! drained into the bounded process-wide [`TraceStore`] when it fills,
//! when the thread exits, or when the instrumented layer calls
//! [`flush_thread`] at a coarse boundary (cell completion, worker exit,
//! build phase end).  The store evicts oldest-first and counts what it
//! dropped, exactly like the event ring.
//!
//! Besides spans the store holds [`CounterRecord`]s — sampled counter
//! series (per-worker utilization) that Chrome's trace viewer renders as
//! stacked counter tracks.
//!
//! [`chrome_trace_json`] serializes any record slice into the Chrome
//! trace-event JSON array format (`chrome://tracing`, Perfetto): spans
//! become complete events (`"ph":"X"`) with microsecond `ts`/`dur`,
//! counters become `"ph":"C"` events.  Records are sorted by timestamp so
//! the output is monotonic regardless of cross-thread flush order.
//!
//! The overhead contract of the crate holds: recording a span is two
//! monotonic clock reads and a `Vec` push on thread-private memory; the
//! store mutex is only touched once per [`THREAD_BUFFER_CAPACITY`]
//! records or at explicit coarse-boundary flushes.

use crate::clock;
use crate::event::FieldValue;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Default capacity of the process-wide trace store, in records.
pub const DEFAULT_TRACE_CAPACITY: usize = 16_384;

/// Records buffered per thread before the store mutex is touched.
pub const THREAD_BUFFER_CAPACITY: usize = 128;

/// One entry of the trace store.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceRecord {
    /// A finished span.
    Span(SpanRecord),
    /// A sampled counter series.
    Counter(CounterRecord),
}

impl TraceRecord {
    /// The job this record is attributed to, if any.
    pub fn job(&self) -> Option<u64> {
        match self {
            TraceRecord::Span(span) => span.job,
            TraceRecord::Counter(counter) => counter.job,
        }
    }

    /// The record's timestamp (a span's start) in monotonic microseconds.
    pub fn ts_us(&self) -> u64 {
        match self {
            TraceRecord::Span(span) => span.start_us,
            TraceRecord::Counter(counter) => counter.ts_us,
        }
    }
}

/// A finished span: a named, categorized interval on one thread.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Process-unique span id (never 0).
    pub id: u64,
    /// Id of the enclosing span, or 0 for a root span.
    pub parent: u64,
    /// Span name (`cell`, `sta`, `job_running`, …).
    pub name: &'static str,
    /// Category: the layer that emitted it (`core`, `engine`, `sched`, …).
    pub cat: &'static str,
    /// Trace-local thread id (stable per OS thread, dense from 1).
    pub tid: u64,
    /// The job this span belongs to, if known.
    pub job: Option<u64>,
    /// Start, in monotonic microseconds ([`clock::now_micros`]).
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Free-form args, shown in the trace viewer's detail pane.
    pub args: SpanArgs,
}

/// Numeric args a [`SpanArgs`] holds without a heap allocation.
const INLINE_ARGS: usize = 2;

/// A span's free-form args, in insertion order.
///
/// Up to two numeric args are stored inline, so the `cell`/`trial` pair
/// of a per-trial span costs no allocation; a string arg or a third arg
/// moves the list to a `Vec`.
#[derive(Debug, Clone)]
pub struct SpanArgs(ArgStore);

#[derive(Debug, Clone)]
enum ArgStore {
    /// `len` numeric args; `bits[i]` holds a `u64`, or an `f64`'s bits
    /// when bit `i` of `floats` is set.
    Inline {
        len: u8,
        floats: u8,
        names: [&'static str; INLINE_ARGS],
        bits: [u64; INLINE_ARGS],
    },
    Heap(Vec<(&'static str, FieldValue)>),
}

impl Default for SpanArgs {
    fn default() -> Self {
        SpanArgs(ArgStore::Inline {
            len: 0,
            floats: 0,
            names: [""; INLINE_ARGS],
            bits: [0; INLINE_ARGS],
        })
    }
}

impl SpanArgs {
    /// Appends an arg.
    fn push(&mut self, name: &'static str, value: FieldValue) {
        if let ArgStore::Inline {
            len,
            floats,
            names,
            bits,
        } = &mut self.0
        {
            let slot = usize::from(*len);
            let raw = match &value {
                FieldValue::U64(n) => Some((*n, 0)),
                FieldValue::F64(x) => Some((x.to_bits(), 1)),
                FieldValue::Str(_) => None,
            };
            match raw {
                Some((raw, float)) if slot < INLINE_ARGS => {
                    names[slot] = name;
                    bits[slot] = raw;
                    *floats |= float << slot;
                    *len += 1;
                    return;
                }
                _ => self.0 = ArgStore::Heap(self.iter().collect()),
            }
        }
        if let ArgStore::Heap(args) = &mut self.0 {
            args.push((name, value));
        }
    }

    fn len(&self) -> usize {
        match &self.0 {
            ArgStore::Inline { len, .. } => usize::from(*len),
            ArgStore::Heap(args) => args.len(),
        }
    }

    /// The args in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, FieldValue)> + '_ {
        (0..self.len()).map(move |i| match &self.0 {
            ArgStore::Inline {
                floats,
                names,
                bits,
                ..
            } => {
                let value = if floats >> i & 1 == 1 {
                    FieldValue::F64(f64::from_bits(bits[i]))
                } else {
                    FieldValue::U64(bits[i])
                };
                (names[i], value)
            }
            ArgStore::Heap(args) => args[i].clone(),
        })
    }
}

impl PartialEq for SpanArgs {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl FromIterator<(&'static str, FieldValue)> for SpanArgs {
    fn from_iter<I: IntoIterator<Item = (&'static str, FieldValue)>>(iter: I) -> Self {
        let mut args = SpanArgs::default();
        for (name, value) in iter {
            args.push(name, value);
        }
        args
    }
}

impl From<Vec<(&'static str, FieldValue)>> for SpanArgs {
    fn from(args: Vec<(&'static str, FieldValue)>) -> Self {
        args.into_iter().collect()
    }
}

impl<const N: usize> From<[(&'static str, FieldValue); N]> for SpanArgs {
    fn from(args: [(&'static str, FieldValue); N]) -> Self {
        args.into_iter().collect()
    }
}

/// A sampled counter series (Chrome `"ph":"C"`): one timestamped set of
/// named values, e.g. a worker's busy/idle/steal micros at exit.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterRecord {
    /// Counter track name.
    pub name: &'static str,
    /// Trace-local thread id of the emitter.
    pub tid: u64,
    /// The job this sample belongs to, if known.
    pub job: Option<u64>,
    /// Sample time, in monotonic microseconds.
    pub ts_us: u64,
    /// The series: `(name, value)` pairs.
    pub series: Vec<(&'static str, f64)>,
}

/// The calling thread's stable trace thread id (dense from 1).
pub fn current_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }
    TID.with(|cell| {
        if cell.get() == 0 {
            cell.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        cell.get()
    })
}

/// Allocates a fresh process-unique span id.
fn next_span_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// An in-flight span.  Dropping (or calling [`Span::finish`]) stamps the
/// duration and queues the record on the thread buffer.
#[derive(Debug)]
pub struct Span {
    record: Option<SpanRecord>,
}

impl Span {
    /// Starts a root span.
    pub fn begin(name: &'static str, cat: &'static str) -> Span {
        Span::with_parent(name, cat, 0)
    }

    /// Starts a span with an explicit parent id (0 for none).
    pub fn with_parent(name: &'static str, cat: &'static str, parent: u64) -> Span {
        Span {
            record: Some(SpanRecord {
                id: next_span_id(),
                parent,
                name,
                cat,
                tid: current_tid(),
                job: None,
                start_us: clock::now_micros(),
                dur_us: 0,
                args: SpanArgs::default(),
            }),
        }
    }

    /// Starts a child of this span.
    pub fn child(&self, name: &'static str, cat: &'static str) -> Span {
        Span::with_parent(name, cat, self.id())
    }

    /// This span's id, for parent links across threads.
    pub fn id(&self) -> u64 {
        self.record.as_ref().map_or(0, |record| record.id)
    }

    /// Attributes the span to a job (builder style).
    pub fn job(mut self, job: u64) -> Span {
        if let Some(record) = self.record.as_mut() {
            record.job = Some(job);
        }
        self
    }

    /// Attaches a free-form arg (builder style).
    pub fn arg(mut self, name: &'static str, value: impl Into<FieldValue>) -> Span {
        if let Some(record) = self.record.as_mut() {
            record.args.push(name, value.into());
        }
        self
    }

    /// Attaches a free-form arg to an already-bound span.
    pub fn set_arg(&mut self, name: &'static str, value: impl Into<FieldValue>) {
        if let Some(record) = self.record.as_mut() {
            record.args.push(name, value.into());
        }
    }

    /// Ends the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(mut record) = self.record.take() {
            record.dur_us = clock::now_micros().saturating_sub(record.start_us);
            push_record(TraceRecord::Span(record));
        }
    }
}

/// Emits a span record with explicit timestamps, for intervals that do
/// not map to one RAII scope (a cell spanning several workers, a job's
/// queued segment).  Returns the new span's id.  Passing `args` as an
/// array of at most two numeric args allocates nothing.
#[allow(clippy::too_many_arguments)]
pub fn record_span(
    name: &'static str,
    cat: &'static str,
    start_us: u64,
    dur_us: u64,
    parent: u64,
    job: Option<u64>,
    args: impl Into<SpanArgs>,
) -> u64 {
    let id = next_span_id();
    push_record(TraceRecord::Span(SpanRecord {
        id,
        parent,
        name,
        cat,
        tid: current_tid(),
        job,
        start_us,
        dur_us,
        args: args.into(),
    }));
    id
}

/// Emits a counter sample (rendered as a counter track by the viewer).
pub fn record_counter(name: &'static str, job: Option<u64>, series: Vec<(&'static str, f64)>) {
    push_record(TraceRecord::Counter(CounterRecord {
        name,
        tid: current_tid(),
        job,
        ts_us: clock::now_micros(),
        series,
    }));
}

/// The per-thread buffer; its `Drop` flushes whatever the thread queued
/// but never explicitly drained.
struct ThreadBuffer(Vec<TraceRecord>);

impl Drop for ThreadBuffer {
    fn drop(&mut self) {
        if !self.0.is_empty() {
            trace().extend(self.0.drain(..));
        }
    }
}

thread_local! {
    static BUFFER: RefCell<ThreadBuffer> =
        RefCell::new(ThreadBuffer(Vec::with_capacity(THREAD_BUFFER_CAPACITY)));
}

/// Queues a record on the calling thread's buffer, draining it into the
/// store when full.
fn push_record(record: TraceRecord) {
    let full = BUFFER
        .try_with(|buffer| {
            let mut buffer = buffer.borrow_mut();
            buffer.0.push(record);
            buffer.0.len() >= THREAD_BUFFER_CAPACITY
        })
        // Thread teardown: the buffer destructor already ran, so this
        // late record goes straight to the store.
        .unwrap_or(true);
    if full {
        flush_thread();
    }
}

/// Drains the calling thread's buffered records into the store.  Call at
/// coarse boundaries (cell completion, worker exit, phase end) so traces
/// fetched over the wire are current.
pub fn flush_thread() {
    let _ = BUFFER.try_with(|buffer| {
        let mut buffer = buffer.borrow_mut();
        if !buffer.0.is_empty() {
            trace().extend(buffer.0.drain(..));
        }
    });
}

/// The bounded process-wide trace store: newest records win, evictions
/// are counted.
#[derive(Debug)]
pub struct TraceStore {
    inner: Mutex<StoreInner>,
}

#[derive(Debug)]
struct StoreInner {
    buf: VecDeque<TraceRecord>,
    capacity: usize,
    dropped: u64,
}

impl TraceStore {
    /// A store bounded to `capacity` records (at least 1).
    pub fn new(capacity: usize) -> TraceStore {
        TraceStore {
            inner: Mutex::new(StoreInner {
                buf: VecDeque::new(),
                capacity: capacity.max(1),
                dropped: 0,
            }),
        }
    }

    /// Appends records, evicting oldest entries beyond the capacity.
    pub fn extend(&self, records: impl IntoIterator<Item = TraceRecord>) {
        let mut inner = self.inner.lock().expect("trace store poisoned");
        for record in records {
            if inner.buf.len() == inner.capacity {
                inner.buf.pop_front();
                inner.dropped += 1;
            }
            inner.buf.push_back(record);
        }
    }

    /// The newest `limit` records (optionally only those of one job),
    /// oldest first.
    pub fn snapshot(&self, limit: usize, job: Option<u64>) -> Vec<TraceRecord> {
        let inner = self.inner.lock().expect("trace store poisoned");
        let mut records: Vec<TraceRecord> = inner
            .buf
            .iter()
            .rev()
            .filter(|record| job.is_none() || record.job() == job)
            .take(limit)
            .cloned()
            .collect();
        records.reverse();
        records
    }

    /// Records evicted since process start.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("trace store poisoned").dropped
    }

    /// The current capacity.
    pub fn capacity(&self) -> usize {
        self.inner.lock().expect("trace store poisoned").capacity
    }

    /// Rebounds the store, evicting (and counting) oldest records if the
    /// new capacity is smaller.
    pub fn set_capacity(&self, capacity: usize) {
        let mut inner = self.inner.lock().expect("trace store poisoned");
        inner.capacity = capacity.max(1);
        while inner.buf.len() > inner.capacity {
            inner.buf.pop_front();
            inner.dropped += 1;
        }
    }
}

/// The process-wide trace store singleton.
pub fn trace() -> &'static TraceStore {
    static TRACE: OnceLock<TraceStore> = OnceLock::new();
    TRACE.get_or_init(|| TraceStore::new(DEFAULT_TRACE_CAPACITY))
}

/// Serializes records into the Chrome trace-event JSON array format
/// (loadable in `chrome://tracing` and Perfetto).  Spans become complete
/// events (`"ph":"X"`), counters become counter events (`"ph":"C"`);
/// records are sorted by timestamp so `ts` is monotonic.
pub fn chrome_trace_json(records: &[TraceRecord]) -> String {
    let mut sorted: Vec<&TraceRecord> = records.iter().collect();
    sorted.sort_by_key(|record| record.ts_us());
    let mut out = String::from("[");
    for (i, record) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match record {
            TraceRecord::Span(span) => {
                let _ = write!(
                    out,
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"name\":{},\"cat\":{}",
                    span.tid,
                    span.start_us,
                    span.dur_us,
                    json_string(span.name),
                    json_string(span.cat),
                );
                out.push_str(",\"args\":{");
                let _ = write!(out, "\"id\":{},\"parent\":{}", span.id, span.parent);
                if let Some(job) = span.job {
                    let _ = write!(out, ",\"job\":{job}");
                }
                for (name, value) in span.args.iter() {
                    let _ = write!(out, ",{}:", json_string(name));
                    match value {
                        FieldValue::U64(n) => {
                            let _ = write!(out, "{n}");
                        }
                        FieldValue::F64(x) if x.is_finite() => {
                            let _ = write!(out, "{x}");
                        }
                        FieldValue::F64(_) => out.push_str("null"),
                        FieldValue::Str(s) => out.push_str(&json_string(&s)),
                    }
                }
                out.push_str("}}");
            }
            TraceRecord::Counter(counter) => {
                let _ = write!(
                    out,
                    "{{\"ph\":\"C\",\"pid\":1,\"tid\":{},\"ts\":{},\"name\":{}",
                    counter.tid,
                    counter.ts_us,
                    json_string(counter.name),
                );
                out.push_str(",\"args\":{");
                for (i, (name, value)) in counter.series.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{}:", json_string(name));
                    if value.is_finite() {
                        let _ = write!(out, "{value}");
                    } else {
                        out.push_str("null");
                    }
                }
                out.push_str("}}");
            }
        }
    }
    out.push(']');
    out
}

/// A JSON string literal (quoted, escaped).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_flush_and_filter_by_job() {
        let store = TraceStore::new(64);
        let root = Span::begin("root", "test").job(7);
        let root_id = root.id();
        let child = root.child("child", "test").arg("trials", 6u64);
        let child_parent = {
            // Inspect before drop: the child links to the root.
            child.record.as_ref().expect("open span").parent
        };
        assert_eq!(child_parent, root_id);
        drop(child);
        drop(root);
        flush_thread();
        // The thread buffer drains into the *global* store; pull the two
        // spans out of it and replay them into a private store to keep
        // this test independent of other tests' records.
        let records = trace().snapshot(usize::MAX, Some(7));
        store.extend(records.iter().cloned());
        let mine = store.snapshot(usize::MAX, Some(7));
        assert!(mine
            .iter()
            .any(|r| matches!(r, TraceRecord::Span(s) if s.name == "root" && s.id == root_id)));

        let child = trace()
            .snapshot(usize::MAX, None)
            .into_iter()
            .find_map(|r| match r {
                TraceRecord::Span(s) if s.parent == root_id => Some(s),
                _ => None,
            })
            .expect("child span reached the store");
        assert_eq!(child.name, "child");
        assert_eq!(child.args, [("trials", FieldValue::U64(6))].into());
        assert_eq!(
            child.job, None,
            "job attribution is per span, not inherited"
        );
    }

    #[test]
    fn the_store_is_bounded_and_counts_drops() {
        let store = TraceStore::new(2);
        for i in 0..5u64 {
            store.extend([TraceRecord::Counter(CounterRecord {
                name: "c",
                tid: 1,
                job: None,
                ts_us: i,
                series: vec![("v", i as f64)],
            })]);
        }
        assert_eq!(store.dropped(), 3);
        let records = store.snapshot(usize::MAX, None);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].ts_us(), 3, "oldest surviving record first");
        store.set_capacity(1);
        assert_eq!(store.dropped(), 4);
        assert_eq!(store.capacity(), 1);
    }

    #[test]
    fn chrome_export_is_a_sorted_array_with_required_keys() {
        let records = vec![
            TraceRecord::Counter(CounterRecord {
                name: "worker_utilization",
                tid: 3,
                job: Some(1),
                ts_us: 900,
                series: vec![("busy_us", 700.0), ("idle_us", f64::NAN)],
            }),
            TraceRecord::Span(SpanRecord {
                id: 2,
                parent: 1,
                name: "cell \"a\"\n",
                cat: "engine",
                tid: 3,
                job: Some(1),
                start_us: 100,
                dur_us: 50,
                args: vec![
                    ("trials", FieldValue::U64(6)),
                    ("note", FieldValue::Str("x".into())),
                ]
                .into(),
            }),
        ];
        let json = chrome_trace_json(&records);
        assert!(json.starts_with('[') && json.ends_with(']'));
        // Sorted by ts: the span (ts 100) precedes the counter (ts 900).
        let span_at = json.find("\"ph\":\"X\"").expect("span event");
        let counter_at = json.find("\"ph\":\"C\"").expect("counter event");
        assert!(span_at < counter_at);
        assert!(json.contains("\"pid\":1"));
        assert!(json.contains("\"tid\":3"));
        assert!(json.contains("\"ts\":100,\"dur\":50"));
        assert!(json.contains("\"name\":\"cell \\\"a\\\"\\n\""));
        assert!(json.contains("\"trials\":6"));
        assert!(json.contains("\"busy_us\":700"));
        assert!(json.contains("\"idle_us\":null"), "{json}");
    }

    #[test]
    fn two_numeric_args_stay_inline_and_others_spill_in_order() {
        let inline: SpanArgs = [
            ("cell", FieldValue::U64(3)),
            ("rate", FieldValue::F64(-0.5)),
        ]
        .into();
        assert!(matches!(inline.0, ArgStore::Inline { len: 2, .. }));
        assert_eq!(
            inline.iter().collect::<Vec<_>>(),
            vec![
                ("cell", FieldValue::U64(3)),
                ("rate", FieldValue::F64(-0.5))
            ]
        );
        let mut spilled = inline.clone();
        spilled.push("third", FieldValue::U64(7));
        assert!(matches!(spilled.0, ArgStore::Heap(_)));
        assert_eq!(spilled.len(), 3);
        assert_eq!(spilled.iter().nth(1), Some(("rate", FieldValue::F64(-0.5))));
        let text: SpanArgs = [("name", FieldValue::from("x"))].into();
        assert!(matches!(text.0, ArgStore::Heap(_)));
        assert_eq!(text.iter().next(), Some(("name", FieldValue::from("x"))));
        // Equality is by content, whatever the storage.
        let heap_pair = SpanArgs(ArgStore::Heap(inline.iter().collect()));
        assert_eq!(heap_pair, inline);
        assert_ne!(spilled, inline);
        assert_eq!(SpanArgs::default().len(), 0);
    }

    #[test]
    fn explicit_records_carry_ids_and_jobs() {
        let id = record_span("job_queued", "sched", 10, 5, 0, Some(42), Vec::new());
        assert!(id > 0);
        record_counter("u", Some(42), vec![("busy_us", 1.0)]);
        flush_thread();
        let records = trace().snapshot(usize::MAX, Some(42));
        assert!(records
            .iter()
            .any(|r| matches!(r, TraceRecord::Span(s) if s.id == id && s.dur_us == 5)));
        assert!(records
            .iter()
            .any(|r| matches!(r, TraceRecord::Counter(c) if c.series == vec![("busy_us", 1.0)])));
    }
}
