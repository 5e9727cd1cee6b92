//! Span recording for traced runs.
//!
//! Every thread that calls into a layer owns a [`Recorder`]: a stack of
//! open spans plus per-name totals of duration and self time (duration
//! minus the time child spans cover).  Spans carry a parent link and the
//! trial or job id they belong to; they stay in memory and are written out
//! as Chrome trace JSON when the run ends.  Only the first
//! [`MAX_STORED_SPANS`] spans per recorder are kept verbatim — the totals
//! always cover every span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Spans each recorder keeps for the Chrome trace.
pub const MAX_STORED_SPANS: usize = 50_000;

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Per-name totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans closed.
    pub count: u64,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed self time, seconds.
    pub self_s: f64,
}

#[derive(Debug, Clone)]
struct Stored {
    tid: u64,
    id: u64,
    parent: u64,
    name: &'static str,
    start_us: f64,
    dur_us: f64,
    key: Option<(&'static str, u64)>,
}

#[derive(Debug)]
struct Frame {
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
    children_s: f64,
    key: Option<(&'static str, u64)>,
}

/// One thread's span recorder.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    tid: u64,
    root_parent: u64,
    stack: Vec<Frame>,
    totals: BTreeMap<&'static str, Totals>,
    stored: Vec<Stored>,
    dropped: u64,
}

impl Recorder {
    /// A recorder for thread `tid` whose top-level spans hang off
    /// `root_parent` (0 for none); timestamps count from `origin`.
    pub fn new(origin: Instant, tid: u64, root_parent: u64) -> Self {
        Recorder {
            origin,
            tid,
            root_parent,
            stack: Vec::new(),
            totals: BTreeMap::new(),
            stored: Vec::new(),
            dropped: 0,
        }
    }

    /// Opens a span now and returns its id.
    pub fn begin(&mut self, name: &'static str, key: Option<(&'static str, u64)>) -> u64 {
        self.begin_at(name, key, Instant::now())
    }

    /// Opens a span that started at `start` and returns its id.
    pub fn begin_at(
        &mut self,
        name: &'static str,
        key: Option<(&'static str, u64)>,
        start: Instant,
    ) -> u64 {
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let parent = self.stack.last().map_or(self.root_parent, |f| f.id);
        self.stack.push(Frame {
            id,
            parent,
            name,
            start,
            children_s: 0.0,
            key,
        });
        id
    }

    /// Closes the innermost open span now and returns its duration in
    /// seconds.
    ///
    /// # Panics
    ///
    /// Panics if no span is open.
    pub fn end(&mut self) -> f64 {
        self.end_at(Instant::now())
    }

    /// Closes the innermost open span at `end` and returns its duration in
    /// seconds.
    ///
    /// # Panics
    ///
    /// Panics if no span is open.
    pub fn end_at(&mut self, end: Instant) -> f64 {
        let frame = self.stack.pop().expect("end() without an open span");
        let dur_s = end.saturating_duration_since(frame.start).as_secs_f64();
        let start_s = frame.start.duration_since(self.origin).as_secs_f64();
        self.close(&frame, start_s, dur_s, frame.children_s);
        dur_s
    }

    /// Records a child of the innermost open span whose time was estimated
    /// rather than observed as one interval (fault injection, which runs
    /// interleaved with the interpreter): it is drawn from the parent's
    /// start and counts against the parent's self time.
    ///
    /// # Panics
    ///
    /// Panics if no span is open.
    pub fn estimated_child(&mut self, name: &'static str, dur_s: f64) {
        let parent = self.stack.last().expect("estimated child without a parent");
        let frame = Frame {
            id: NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed),
            parent: parent.id,
            name,
            start: parent.start,
            children_s: 0.0,
            key: Some(("estimated", 1)),
        };
        let start_s = frame.start.duration_since(self.origin).as_secs_f64();
        self.close(&frame, start_s, dur_s, 0.0);
    }

    /// Records an already finished interval as a leaf span under the
    /// innermost open span (or the root).
    pub fn interval(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        key: Option<(&'static str, u64)>,
    ) {
        self.begin_at(name, key, start);
        self.end_at(end);
    }

    fn close(&mut self, frame: &Frame, start_s: f64, dur_s: f64, children_s: f64) {
        if let Some(parent) = self.stack.last_mut() {
            parent.children_s += dur_s;
        }
        let totals = self.totals.entry(frame.name).or_default();
        totals.count += 1;
        totals.total_s += dur_s;
        totals.self_s += (dur_s - children_s).max(0.0);
        if self.stored.len() < MAX_STORED_SPANS {
            self.stored.push(Stored {
                tid: self.tid,
                id: frame.id,
                parent: frame.parent,
                name: frame.name,
                start_us: start_s * 1e6,
                dur_us: dur_s * 1e6,
                key: frame.key,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// The totals of spans named `name` (zero if none closed).
    pub fn totals(&self, name: &str) -> Totals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Folds another recorder's spans and totals into this one.
    pub fn absorb(&mut self, other: Recorder) {
        for (name, t) in other.totals {
            let mine = self.totals.entry(name).or_default();
            mine.count += t.count;
            mine.total_s += t.total_s;
            mine.self_s += t.self_s;
        }
        let room = MAX_STORED_SPANS.saturating_sub(self.stored.len());
        let kept = other.stored.len().min(room);
        self.dropped += other.dropped + (other.stored.len() - kept) as u64;
        self.stored.extend(other.stored.into_iter().take(kept));
    }

    /// Renders every stored span as a Chrome trace-event document.
    pub fn chrome_trace(&self, metadata: &[(&str, String)]) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"otherData\":{");
        for (i, (key, value)) in metadata.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(out, "{sep}\"{}\":\"{}\"", escape(key), escape(value));
        }
        let sep = if metadata.is_empty() { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\"dropped_spans\":\"{}\"}},\"traceEvents\":[",
            self.dropped
        );
        for (i, s) in self.stored.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(
                out,
                "{sep}\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.tid,
                s.start_us,
                s.dur_us,
                s.id,
                s.parent
            );
            if let Some((k, v)) = s.key {
                let _ = write!(out, ",\"{k}\":{v}");
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

fn escape(text: &str) -> String {
    text.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_links_parents() {
        let mut rec = Recorder::new(Instant::now(), 1, 0);
        let outer = rec.begin("trial", Some(("trial", 7)));
        rec.begin("cpu.run", None);
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.estimated_child("fault.inject", 0.001);
        let cpu = rec.end();
        let trial = rec.end();
        let t = rec.totals("trial");
        assert_eq!(t.count, 1);
        assert!((t.self_s - (trial - cpu)).abs() < 1e-9);
        let c = rec.totals("cpu.run");
        assert!((c.self_s - (cpu - 0.001)).abs() < 1e-9);
        assert_eq!(rec.totals("fault.inject").count, 1);
        let doc = rec.chrome_trace(&[("workload", "unit".into())]);
        assert!(doc.contains(&format!("\"parent\":{outer}")));
        assert!(doc.contains("\"trial\":7"));
        assert!(doc.contains("\"workload\":\"unit\""));
    }

    #[test]
    fn absorb_merges_totals_and_spans() {
        let origin = Instant::now();
        let mut a = Recorder::new(origin, 1, 0);
        a.begin("serve.poff", None);
        a.end();
        let mut b = Recorder::new(origin, 2, 0);
        b.begin("serve.poff", None);
        b.end();
        a.absorb(b);
        assert_eq!(a.totals("serve.poff").count, 2);
        let doc = a.chrome_trace(&[]);
        assert!(doc.contains("\"tid\":2"));
    }
}
