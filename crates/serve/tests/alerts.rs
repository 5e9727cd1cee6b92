//! Loopback tests for the tracing/alerting surface: a queue-depth alert
//! that demonstrably fires and resolves, and a `trace` frame carrying
//! job-lifecycle, cell and trial spans.
//!
//! These tests live in their own test binary (= their own process): the
//! alert engine and trace store are process-global singletons, and the
//! fire/resolve assertions need a queue-depth story no concurrent test
//! can perturb.

use sfi_core::json::Json;
use sfi_core::FaultModel;
use sfi_serve::client::Client;
use sfi_serve::server::{ServeConfig, Server};
use sfi_serve::wire::{BenchmarkDef, BudgetDef, CampaignDef, CellDef};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The alert engine, trace store and scheduler gauges are process-global;
/// both tests in this binary tell queue-depth stories, so they must not
/// overlap in time.
static STORY: Mutex<()> = Mutex::new(());

fn serialize() -> std::sync::MutexGuard<'static, ()> {
    STORY
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A slow, many-cell campaign that keeps the single job slot busy.
/// Cells start at 0.98 x STA: below ~0.97 x STA (10 mV noise) the model-C
/// injector provably never faults and trials run fault-free, skipping the
/// per-cycle noise draws, which would make the job several times shorter.
fn long_def(name: &str, sta: f64, cells: usize, trials: usize) -> CampaignDef {
    let mut def = CampaignDef::new(name, 1);
    let median = def.add_benchmark(BenchmarkDef::Median {
        values: 129,
        seed: 3,
    });
    for i in 0..cells {
        def.cells.push(CellDef {
            benchmark: median,
            model: FaultModel::StatisticalDta,
            freq_mhz: sta * (0.98 + 0.01 * i as f64),
            vdd: 0.7,
            noise_sigma_mv: 10.0,
            budget: BudgetDef::fixed(trials),
        });
    }
    def
}

/// Finds one rule's status document in an `alerts` frame payload.
fn rule_status(alerts: &Json, rule: &str) -> Json {
    alerts
        .as_arr()
        .expect("alerts is an array")
        .iter()
        .find(|s| s.get("rule").and_then(Json::as_str) == Some(rule))
        .unwrap_or_else(|| panic!("rule {rule} missing from the alerts frame"))
        .clone()
}

/// Polls `alerts` until the rule's firing state matches, or panics after
/// the deadline.  Alert evaluation is poll-driven: each `alerts` request
/// advances the rule state machine against a fresh registry snapshot.
fn wait_for_firing(client: &mut Client, rule: &str, want: bool) -> Json {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let alerts = client.alerts().expect("alerts frame");
        let status = rule_status(&alerts, rule);
        if status.get("firing").and_then(Json::as_bool) == Some(want) {
            return status;
        }
        assert!(
            Instant::now() < deadline,
            "rule {rule} never reached firing={want}: {status}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn queue_depth_alert_fires_and_resolves() {
    let _story = serialize();
    let server = Server::start(ServeConfig {
        max_concurrent_jobs: 1,
        // Arm at > 2 queued jobs with no hold so a single saturated
        // evaluation fires; the drop-rate rule keeps its default.
        alert_queue_depth: 2.0,
        alert_hold_seconds: 0.0,
        ..ServeConfig::fast_for_tests()
    })
    .expect("server starts");
    let mut client = Client::connect(server.local_addr()).expect("connects");
    let info = client.ping().expect("pong");

    // One running job holds the slot; four more pile up in the queue.
    let runner = client
        .submit(&long_def("alert-runner", info.sta_limit_mhz, 6, 400))
        .expect("submits");
    let queued: Vec<u64> = (0..4)
        .map(|i| {
            client
                .submit(&long_def(
                    &format!("alert-queued-{i}"),
                    info.sta_limit_mhz,
                    2,
                    5,
                ))
                .expect("submits")
                .job
        })
        .collect();

    let firing = wait_for_firing(&mut client, "scheduler_queue_saturated", true);
    assert_eq!(
        firing.get("family").and_then(Json::as_str),
        Some("sfi_sched_queue_depth")
    );
    assert!(
        firing.get("value").and_then(Json::as_f64).expect("value") > 2.0,
        "firing status reports the saturated depth: {firing}"
    );
    assert!(
        firing.get("since_us").and_then(Json::as_u64).is_some(),
        "a firing rule carries its since timestamp: {firing}"
    );
    let fired_total = firing
        .get("fired_total")
        .and_then(Json::as_u64)
        .expect("fired_total");
    assert!(fired_total >= 1);

    // Drain the queue: cancel the waiting jobs and the runner.
    for job in queued {
        client.cancel(job).expect("cancels queued job");
    }
    client.cancel(runner.job).expect("cancels runner");
    let resolved = wait_for_firing(&mut client, "scheduler_queue_saturated", false);
    assert!(
        resolved
            .get("resolved_total")
            .and_then(Json::as_u64)
            .expect("resolved_total")
            >= 1,
        "the rule resolved after the queue drained: {resolved}"
    );
    assert_eq!(
        resolved.get("since_us").cloned(),
        Some(Json::Null),
        "a resolved rule has no since timestamp"
    );

    server.shutdown();
}

#[test]
fn trace_frame_carries_lifecycle_and_engine_spans() {
    let _story = serialize();
    let server = Server::start(ServeConfig::fast_for_tests()).expect("server starts");
    let mut client = Client::connect(server.local_addr()).expect("connects");
    let info = client.ping().expect("pong");

    let mut def = CampaignDef::new("trace-loopback", 42);
    let median = def.add_benchmark(BenchmarkDef::Median {
        values: 21,
        seed: 3,
    });
    for overscale in [0.95, 1.25] {
        def.cells.push(CellDef {
            benchmark: median,
            model: FaultModel::StatisticalDta,
            freq_mhz: info.sta_limit_mhz * overscale,
            vdd: info.nominal_vdd,
            noise_sigma_mv: 10.0,
            budget: BudgetDef::fixed(6),
        });
    }
    let ticket = client.submit(&def).expect("submits");
    client.wait(ticket.job).expect("job finishes");

    // Job-filtered fetch: the lifecycle spans plus the engine spans the
    // scheduler tagged with this job id.
    let (spans, _dropped) = client.trace(None, Some(ticket.job)).expect("trace frame");
    let records = spans.as_arr().expect("spans is an array");
    let names: Vec<&str> = records
        .iter()
        .filter_map(|r| r.get("name").and_then(Json::as_str))
        .collect();
    for expected in [
        "job_queued",
        "job_running",
        "job_lifetime",
        "campaign",
        "cell",
        "trial",
    ] {
        assert!(
            names.contains(&expected),
            "span {expected} missing from job-filtered trace: {names:?}"
        );
    }
    assert!(
        names.contains(&"worker_utilization"),
        "per-worker utilization counters are tagged with the job: {names:?}"
    );
    for record in records {
        assert_eq!(
            record.get("job").and_then(Json::as_u64),
            Some(ticket.job),
            "job-filtered records all carry the job id: {record}"
        );
        let ph = record.get("ph").and_then(Json::as_str).expect("ph");
        assert!(ph == "X" || ph == "C", "known phase: {record}");
        assert!(record.get("ts_us").and_then(Json::as_u64).is_some());
    }
    // Span records nest: this campaign's trial spans parent to its
    // campaign span.  (Anchor on the campaign name — the global store may
    // hold records from other jobs that reused the same numeric id.)
    let campaign_id = records
        .iter()
        .find(|r| {
            r.get("name").and_then(Json::as_str) == Some("campaign")
                && r.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    == Some("trace-loopback")
        })
        .and_then(|r| r.get("id"))
        .and_then(Json::as_u64)
        .expect("campaign span id");
    assert!(
        records.iter().any(|r| {
            r.get("name").and_then(Json::as_str) == Some("trial")
                && r.get("parent").and_then(Json::as_u64) == Some(campaign_id)
        }),
        "trial spans parent to the campaign span"
    );

    // The limit knob caps the fetch.
    let (limited, _) = client
        .trace(Some(2), Some(ticket.job))
        .expect("trace frame");
    assert!(limited.as_arr().expect("array").len() <= 2);

    server.shutdown();
}
