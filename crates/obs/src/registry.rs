//! The process-wide metric registry.
//!
//! Rather than a dynamic name→metric map, the registry is one static
//! struct with a field per family, built once on first use: registration
//! cannot race, lookups are field accesses (no hashing, no locks on the
//! hot path), and [`Metrics::snapshot`] enumerates every family with its
//! name, help text and type in one place.

use crate::event::EventRing;
use crate::metric::{Counter, Gauge, Histogram, HistogramSnapshot, ShardedCounter};
use std::sync::OnceLock;

/// Label values of the per-model fault counter, in wire-format spelling
/// and the canonical model order (None, A, B, B+, C).
pub const FAULT_MODEL_LABELS: [&str; 5] = ["none", "fixed_probability", "sta", "sta_noise", "dta"];

/// Label values of the per-priority scheduler gauges, lowest first.
pub const PRIORITY_LABELS: [&str; 3] = ["low", "normal", "high"];

/// Upper bounds of the job wait/run latency histograms, in seconds.
const LATENCY_BOUNDS_S: [f64; 8] = [0.001, 0.01, 0.05, 0.25, 1.0, 5.0, 30.0, 120.0];

/// Every metric family of the process.  Obtain the singleton via
/// [`metrics`]; update fields directly, sample with
/// [`Metrics::snapshot`].
#[derive(Debug)]
pub struct Metrics {
    // — ISS hot path (sharded: updated once per trial by worker threads) —
    /// Monte-Carlo trials simulated, all callers (engine, sweeps, perf).
    pub trials: ShardedCounter,
    /// Simulated clock cycles.
    pub iss_cycles: ShardedCounter,
    /// Faults injected, by fault model ([`FAULT_MODEL_LABELS`] order).
    pub iss_faults: [ShardedCounter; 5],
    /// Runs aborted by the watchdog cycle limit.
    pub iss_watchdog_trips: ShardedCounter,

    // — campaign engine —
    /// Campaign cells completed.
    pub engine_cells_finished: Counter,
    /// Trials the adaptive stopping rule avoided (budgeted minus run).
    pub engine_trials_saved: Counter,
    /// Microseconds campaign workers spent executing trials.
    pub engine_worker_busy_us: ShardedCounter,
    /// Microseconds campaign workers spent asleep with nothing to do.
    pub engine_worker_idle_us: ShardedCounter,
    /// Microseconds campaign workers spent taking work off the queue.
    pub engine_worker_steal_us: ShardedCounter,

    // — serve scheduler —
    /// Queued jobs per priority class ([`PRIORITY_LABELS`] order).
    pub sched_queue_depth: [Gauge; 3],
    /// Jobs currently running.
    pub sched_running: Gauge,
    /// Jobs accepted by `submit`.
    pub sched_jobs_submitted: Counter,
    /// Submissions rejected by per-client quotas.
    pub sched_quota_rejections: Counter,
    /// Cooperative preemptions (running job returned to its queue).
    pub sched_preemptions: Counter,
    /// Retained results evicted under the byte cap.
    pub sched_evictions: Counter,
    /// Bytes released by result eviction.
    pub sched_evicted_bytes: Counter,
    /// Characterization cache hits at daemon start.
    pub cache_hits: Counter,
    /// Characterization cache misses (cold builds) at daemon start.
    pub cache_misses: Counter,
    /// Seconds jobs spent queued before (re)starting.
    pub job_wait_seconds: Histogram,
    /// Seconds jobs spent actually running (summed across preemption
    /// segments, observed once at the terminal state).
    pub job_run_seconds: Histogram,

    // — serve durability and connection robustness —
    /// Records appended (and fsync'd) to an append log: the durable job
    /// journal or a campaign checkpoint.
    pub journal_appends: Counter,
    /// Log records replayed: journal recovery and checkpoint resumes.
    pub journal_replayed: Counter,
    /// Jobs restored from the journal at daemon restart.
    pub recovered_jobs: Counter,
    /// Connections closed by the per-connection read/write deadline.
    pub conn_timeouts: Counter,
    /// Client-side retry attempts (reconnect + resubmit) performed by
    /// the retry policy.
    pub client_retries: Counter,
    /// Whether the daemon is draining (1) or accepting submits (0).
    pub draining: Gauge,
}

impl Metrics {
    fn new() -> Self {
        Metrics {
            trials: ShardedCounter::new(),
            iss_cycles: ShardedCounter::new(),
            iss_faults: std::array::from_fn(|_| ShardedCounter::new()),
            iss_watchdog_trips: ShardedCounter::new(),
            engine_cells_finished: Counter::new(),
            engine_trials_saved: Counter::new(),
            engine_worker_busy_us: ShardedCounter::new(),
            engine_worker_idle_us: ShardedCounter::new(),
            engine_worker_steal_us: ShardedCounter::new(),
            sched_queue_depth: std::array::from_fn(|_| Gauge::new()),
            sched_running: Gauge::new(),
            sched_jobs_submitted: Counter::new(),
            sched_quota_rejections: Counter::new(),
            sched_preemptions: Counter::new(),
            sched_evictions: Counter::new(),
            sched_evicted_bytes: Counter::new(),
            cache_hits: Counter::new(),
            cache_misses: Counter::new(),
            job_wait_seconds: Histogram::new(&LATENCY_BOUNDS_S),
            job_run_seconds: Histogram::new(&LATENCY_BOUNDS_S),
            journal_appends: Counter::new(),
            journal_replayed: Counter::new(),
            recovered_jobs: Counter::new(),
            conn_timeouts: Counter::new(),
            client_retries: Counter::new(),
            draining: Gauge::new(),
        }
    }

    /// The per-model fault counter for [`FAULT_MODEL_LABELS`] index
    /// `model_index`.
    pub fn iss_faults_for(&self, model_index: usize) -> &ShardedCounter {
        &self.iss_faults[model_index]
    }

    /// A point-in-time snapshot of every family, in registration order.
    pub fn snapshot(&self) -> Snapshot {
        let counter = |name, help, value: u64| Family {
            name,
            help,
            kind: FamilyKind::Counter,
            samples: vec![Sample {
                labels: Vec::new(),
                value: SampleValue::Counter(value),
            }],
        };
        let gauge = |name, help, value: i64| Family {
            name,
            help,
            kind: FamilyKind::Gauge,
            samples: vec![Sample {
                labels: Vec::new(),
                value: SampleValue::Gauge(value),
            }],
        };
        let histogram = |name, help, snapshot: HistogramSnapshot| Family {
            name,
            help,
            kind: FamilyKind::Histogram,
            samples: vec![Sample {
                labels: Vec::new(),
                value: SampleValue::Histogram(snapshot),
            }],
        };
        let families = vec![
            counter(
                "sfi_trials_total",
                "Monte-Carlo trials simulated",
                self.trials.get(),
            ),
            counter(
                "sfi_iss_cycles_total",
                "Clock cycles simulated by the ISS",
                self.iss_cycles.get(),
            ),
            Family {
                name: "sfi_iss_injected_faults_total",
                help: "Bit faults injected, by fault model",
                kind: FamilyKind::Counter,
                samples: FAULT_MODEL_LABELS
                    .iter()
                    .zip(&self.iss_faults)
                    .map(|(label, counter)| Sample {
                        labels: vec![("model", label.to_string())],
                        value: SampleValue::Counter(counter.get()),
                    })
                    .collect(),
            },
            counter(
                "sfi_iss_watchdog_trips_total",
                "Runs aborted by the watchdog cycle limit",
                self.iss_watchdog_trips.get(),
            ),
            counter(
                "sfi_engine_cells_finished_total",
                "Campaign cells completed",
                self.engine_cells_finished.get(),
            ),
            counter(
                "sfi_engine_adaptive_trials_saved_total",
                "Trials skipped by the adaptive stopping rule",
                self.engine_trials_saved.get(),
            ),
            counter(
                "sfi_engine_worker_busy_micros_total",
                "Microseconds campaign workers spent executing trials",
                self.engine_worker_busy_us.get(),
            ),
            counter(
                "sfi_engine_worker_idle_micros_total",
                "Microseconds campaign workers spent asleep with nothing to do",
                self.engine_worker_idle_us.get(),
            ),
            counter(
                "sfi_engine_worker_steal_micros_total",
                "Microseconds campaign workers spent looking for work",
                self.engine_worker_steal_us.get(),
            ),
            Family {
                name: "sfi_sched_queue_depth",
                help: "Queued jobs, by priority class",
                kind: FamilyKind::Gauge,
                samples: PRIORITY_LABELS
                    .iter()
                    .zip(&self.sched_queue_depth)
                    .map(|(label, gauge)| Sample {
                        labels: vec![("priority", label.to_string())],
                        value: SampleValue::Gauge(gauge.get()),
                    })
                    .collect(),
            },
            gauge(
                "sfi_sched_running_jobs",
                "Jobs currently running",
                self.sched_running.get(),
            ),
            counter(
                "sfi_sched_jobs_submitted_total",
                "Jobs accepted by submit",
                self.sched_jobs_submitted.get(),
            ),
            counter(
                "sfi_sched_quota_rejections_total",
                "Submissions rejected by per-client quotas",
                self.sched_quota_rejections.get(),
            ),
            counter(
                "sfi_sched_preemptions_total",
                "Cooperative job preemptions",
                self.sched_preemptions.get(),
            ),
            counter(
                "sfi_sched_evictions_total",
                "Retained results evicted under the byte cap",
                self.sched_evictions.get(),
            ),
            counter(
                "sfi_sched_evicted_bytes_total",
                "Bytes released by result eviction",
                self.sched_evicted_bytes.get(),
            ),
            counter(
                "sfi_characterization_cache_hits_total",
                "Characterization cache hits at daemon start",
                self.cache_hits.get(),
            ),
            counter(
                "sfi_characterization_cache_misses_total",
                "Characterization cache misses at daemon start",
                self.cache_misses.get(),
            ),
            counter(
                "sfi_events_dropped_total",
                "Events evicted from the bounded in-memory ring",
                events().dropped(),
            ),
            counter(
                "sfi_trace_records_dropped_total",
                "Trace records evicted from the bounded trace store",
                crate::span::trace().dropped(),
            ),
            histogram(
                "sfi_sched_job_wait_seconds",
                "Seconds jobs spent queued before (re)starting",
                self.job_wait_seconds.snapshot(),
            ),
            histogram(
                "sfi_sched_job_run_seconds",
                "Seconds jobs spent running, summed across preemption segments",
                self.job_run_seconds.snapshot(),
            ),
            counter(
                "sfi_journal_appends_total",
                "Records appended to the job journal and checkpoint logs",
                self.journal_appends.get(),
            ),
            counter(
                "sfi_journal_replayed_records_total",
                "Log records replayed by journal recovery and checkpoint resumes",
                self.journal_replayed.get(),
            ),
            counter(
                "sfi_recovered_jobs_total",
                "Jobs restored from the journal at daemon restart",
                self.recovered_jobs.get(),
            ),
            counter(
                "sfi_conn_timeouts_total",
                "Connections closed by the per-connection read/write deadline",
                self.conn_timeouts.get(),
            ),
            counter(
                "sfi_client_retries_total",
                "Client-side retry attempts performed by the retry policy",
                self.client_retries.get(),
            ),
            gauge(
                "sfi_draining",
                "Whether the daemon is draining (1) or accepting submits (0)",
                self.draining.get(),
            ),
        ];
        Snapshot { families }
    }
}

/// The process-wide registry singleton.
pub fn metrics() -> &'static Metrics {
    static METRICS: OnceLock<Metrics> = OnceLock::new();
    METRICS.get_or_init(Metrics::new)
}

/// Default capacity of the process-wide event ring.
pub const DEFAULT_EVENT_CAPACITY: usize = 1024;

/// The process-wide event ring singleton.
pub fn events() -> &'static EventRing {
    static EVENTS: OnceLock<EventRing> = OnceLock::new();
    EVENTS.get_or_init(|| EventRing::new(DEFAULT_EVENT_CAPACITY))
}

/// What kind of samples a family carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FamilyKind {
    /// Monotonically increasing count.
    Counter,
    /// A value that can move both ways.
    Gauge,
    /// A fixed-bucket distribution.
    Histogram,
}

impl FamilyKind {
    /// The Prometheus/wire spelling of the kind.
    pub fn as_str(self) -> &'static str {
        match self {
            FamilyKind::Counter => "counter",
            FamilyKind::Gauge => "gauge",
            FamilyKind::Histogram => "histogram",
        }
    }
}

/// One sample value.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// A counter reading.
    Counter(u64),
    /// A gauge reading.
    Gauge(i64),
    /// A histogram reading.
    Histogram(HistogramSnapshot),
}

/// One labelled sample of a family.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Label name/value pairs (empty for unlabelled families).
    pub labels: Vec<(&'static str, String)>,
    /// The reading.
    pub value: SampleValue,
}

/// One metric family: a name, help text, kind and its samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Family {
    /// The family name, `sfi_*` by convention.
    pub name: &'static str,
    /// One-line help text.
    pub help: &'static str,
    /// The family kind.
    pub kind: FamilyKind,
    /// The labelled samples.
    pub samples: Vec<Sample>,
}

/// A point-in-time view of the whole registry.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// All families, registration order.
    pub families: Vec<Family>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_updates_and_covers_all_layers() {
        let m = metrics();
        let before = m.trials.get();
        m.trials.add(3);
        m.iss_faults_for(4).add(2);
        let snapshot = m.snapshot();

        let family = |name: &str| {
            snapshot
                .families
                .iter()
                .find(|f| f.name == name)
                .unwrap_or_else(|| panic!("family {name} missing"))
        };
        match &family("sfi_trials_total").samples[0].value {
            SampleValue::Counter(value) => assert!(*value >= before + 3),
            other => panic!("unexpected value {other:?}"),
        }
        let faults = family("sfi_iss_injected_faults_total");
        assert_eq!(faults.samples.len(), FAULT_MODEL_LABELS.len());
        assert_eq!(faults.samples[4].labels, vec![("model", "dta".to_string())]);

        // One family per layer must be present: ISS, engine, scheduler.
        for name in [
            "sfi_iss_cycles_total",
            "sfi_engine_worker_busy_micros_total",
            "sfi_engine_worker_idle_micros_total",
            "sfi_engine_worker_steal_micros_total",
            "sfi_sched_queue_depth",
            "sfi_sched_job_wait_seconds",
            "sfi_events_dropped_total",
            "sfi_trace_records_dropped_total",
            "sfi_journal_appends_total",
            "sfi_journal_replayed_records_total",
            "sfi_recovered_jobs_total",
            "sfi_conn_timeouts_total",
            "sfi_client_retries_total",
            "sfi_draining",
        ] {
            let _ = family(name);
        }
    }

    #[test]
    fn the_singletons_are_stable() {
        assert!(std::ptr::eq(metrics(), metrics()));
        assert!(std::ptr::eq(events(), events()));
    }
}
