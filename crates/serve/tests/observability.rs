//! End-to-end observability test: drives a daemon through submit, quota
//! rejection, preemption and eviction, then asserts the story is visible
//! through every export surface — the `metrics` frame, the `events`
//! frame, the extended `pong` totals and the Prometheus listener.
//!
//! The metrics registry is process-global, so every assertion is a
//! *delta* (before/after, `>=`) rather than an absolute value — other
//! tests in this binary could in principle run campaigns too.

use sfi_campaign::{checkpoint, CampaignEngine};
use sfi_core::json::Json;
use sfi_core::study::{CaseStudy, CaseStudyConfig};
use sfi_core::FaultModel;
use sfi_serve::client::Client;
use sfi_serve::jobs::{JobState, Priority};
use sfi_serve::protocol::ErrorCode;
use sfi_serve::server::{ServeConfig, Server};
use sfi_serve::wire::{BenchmarkDef, BudgetDef, CampaignDef, CellDef};
use std::io::{Read, Write};
use std::net::TcpStream;

/// A 2-cell median campaign straddling the failure transition.
fn two_cell_def(name: &str, sta: f64) -> CampaignDef {
    let mut def = CampaignDef::new(name, 42);
    let median = def.add_benchmark(BenchmarkDef::Median {
        values: 21,
        seed: 3,
    });
    for overscale in [0.95, 1.25] {
        def.cells.push(CellDef {
            benchmark: median,
            model: FaultModel::StatisticalDta,
            freq_mhz: sta * overscale,
            vdd: 0.7,
            noise_sigma_mv: 10.0,
            budget: BudgetDef::fixed(6),
        });
    }
    def
}

/// A slow, many-cell campaign for mid-run preemption.
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

/// Finds one family document by name in a `metrics` snapshot.
fn family<'a>(snapshot: &'a Json, name: &str) -> &'a Json {
    snapshot
        .get("families")
        .and_then(Json::as_arr)
        .and_then(|families| {
            families
                .iter()
                .find(|f| f.get("name").and_then(Json::as_str) == Some(name))
        })
        .unwrap_or_else(|| panic!("family {name} missing from the snapshot"))
}

/// The value of a counter family's sample matching `label` (or the single
/// unlabelled sample).
fn counter(snapshot: &Json, name: &str, label: Option<(&str, &str)>) -> u64 {
    let samples = family(snapshot, name)
        .get("samples")
        .and_then(Json::as_arr)
        .expect("samples array");
    let sample = samples
        .iter()
        .find(|s| match label {
            None => true,
            Some((key, value)) => {
                s.get("labels")
                    .and_then(|l| l.get(key))
                    .and_then(Json::as_str)
                    == Some(value)
            }
        })
        .unwrap_or_else(|| panic!("no sample of {name} matches {label:?}"));
    sample
        .get("value")
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("{name} value is not a counter"))
}

/// The gauge value of a family's sample matching `label`.
fn gauge(snapshot: &Json, name: &str, label: Option<(&str, &str)>) -> i64 {
    let samples = family(snapshot, name)
        .get("samples")
        .and_then(Json::as_arr)
        .expect("samples array");
    let sample = samples
        .iter()
        .find(|s| match label {
            None => true,
            Some((key, value)) => {
                s.get("labels")
                    .and_then(|l| l.get(key))
                    .and_then(Json::as_str)
                    == Some(value)
            }
        })
        .unwrap_or_else(|| panic!("no sample of {name} matches {label:?}"));
    sample
        .get("value")
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{name} value is not a gauge")) as i64
}

/// The (count, sum) of a histogram family's single sample.
fn histogram(snapshot: &Json, name: &str) -> (u64, f64) {
    let samples = family(snapshot, name)
        .get("samples")
        .and_then(Json::as_arr)
        .expect("samples array");
    let value = samples[0].get("value").expect("histogram value");
    (
        value.get("count").and_then(Json::as_u64).expect("count"),
        value.get("sum").and_then(Json::as_f64).expect("sum"),
    )
}

#[test]
fn the_full_job_story_is_visible_through_every_export_surface() {
    // Size the eviction cap from a local run: two retained results fit,
    // three do not.
    let study = CaseStudy::build(CaseStudyConfig::fast_for_tests());
    let sta = study.sta_limit_mhz(0.7);
    let evict_def = two_cell_def("evictable", sta);
    let spec = evict_def.instantiate().expect("instantiates");
    let local = CampaignEngine::new().run(&study, &spec);
    let single = local.to_json(&spec).to_string().len()
        + local
            .cells
            .iter()
            .map(|cell| checkpoint::cell_to_json(cell).to_string().len())
            .sum::<usize>();

    let server = Server::start(ServeConfig {
        result_cap_bytes: Some(single * 2 + single / 2),
        max_queued_per_client: Some(1),
        metrics_addr: Some("127.0.0.1:0".into()),
        ..ServeConfig::fast_for_tests()
    })
    .expect("daemon starts");
    let mut client = Client::connect(server.local_addr()).expect("connects");

    let info = client.ping().expect("pong");
    assert!(info.metrics_enabled, "the Prometheus listener is on");
    let before = client.metrics().expect("metrics frame");

    // --- Submit and finish a small campaign. -------------------------
    let ticket = client.submit(&evict_def).expect("accepted");
    let status = client.wait(ticket.job).expect("terminal");
    assert_eq!(status.state, JobState::Done);

    let after = client.metrics().expect("metrics frame");
    let delta = |name: &str, label: Option<(&str, &str)>| {
        counter(&after, name, label) - counter(&before, name, label)
    };
    assert!(delta("sfi_trials_total", None) >= 12, "2 cells x 6 trials");
    assert!(delta("sfi_iss_cycles_total", None) > 0);
    assert!(
        delta("sfi_iss_injected_faults_total", Some(("model", "dta"))) > 0,
        "the 1.25x-STA cell must inject DTA faults"
    );
    assert!(delta("sfi_engine_cells_finished_total", None) >= 2);
    assert!(delta("sfi_sched_jobs_submitted_total", None) >= 1);
    let (wait_before, _) = histogram(&before, "sfi_sched_job_wait_seconds");
    let (wait_after, _) = histogram(&after, "sfi_sched_job_wait_seconds");
    assert!(wait_after > wait_before, "the dispatch observed a wait");
    let (run_before, run_sum_before) = histogram(&before, "sfi_sched_job_run_seconds");
    let (run_after, run_sum_after) = histogram(&after, "sfi_sched_job_run_seconds");
    assert!(run_after > run_before, "the terminal job observed a run");
    assert!(
        run_sum_after >= run_sum_before,
        "monotonic-clock run times never go negative"
    );
    // Idle daemon: the running-slots gauge is back to zero, queues empty.
    assert_eq!(gauge(&after, "sfi_sched_running_jobs", None), 0);
    assert_eq!(
        gauge(
            &after,
            "sfi_sched_queue_depth",
            Some(("priority", "normal"))
        ),
        0
    );

    // --- Quota rejection. --------------------------------------------
    // One slot is busy with a long low-priority job; a second client can
    // queue exactly one job before hitting its quota.
    let low = client
        .submit_with(
            &long_def("preempt-victim", sta, 48, 30),
            Priority::Low,
            Some("batch"),
        )
        .expect("accepted");
    loop {
        let status = client.status(low.job).expect("status");
        if status.state == JobState::Running && status.completed_cells >= 1 {
            break;
        }
        assert!(!status.is_terminal(), "must still be running");
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let queued = client
        .submit_with(
            &two_cell_def("queued-ok", sta),
            Priority::Low,
            Some("quota"),
        )
        .expect("first queued job fits the quota");
    let err = client
        .submit_with(
            &two_cell_def("queued-over", sta),
            Priority::Low,
            Some("quota"),
        )
        .expect_err("second queued job exceeds the quota");
    assert_eq!(err.code(), Some(ErrorCode::QuotaExceeded), "{err}");

    // --- Preemption. --------------------------------------------------
    let mut urgent_def = CampaignDef::new("urgent", 9);
    let crc = urgent_def.add_benchmark(BenchmarkDef::Crc32 { words: 16, seed: 3 });
    urgent_def.cells.push(CellDef {
        benchmark: crc,
        model: FaultModel::StatisticalDta,
        freq_mhz: sta * 1.05,
        vdd: 0.7,
        noise_sigma_mv: 10.0,
        budget: BudgetDef::fixed(4),
    });
    let high = client
        .submit_with(&urgent_def, Priority::High, Some("interactive"))
        .expect("accepted");
    assert_eq!(
        client.wait(high.job).expect("terminal").state,
        JobState::Done
    );
    let low_status = client.wait(low.job).expect("terminal");
    assert_eq!(low_status.state, JobState::Done);
    assert!(low_status.preemptions >= 1);
    assert_eq!(
        client.wait(queued.job).expect("terminal").state,
        JobState::Done
    );

    // --- Eviction. ----------------------------------------------------
    // The long job's retained bytes blow well past the cap, so by now at
    // least one earlier result has been evicted; two more small jobs make
    // it deterministic regardless of ordering.
    let extra = client.submit(&evict_def).expect("accepted");
    assert_eq!(
        client.wait(extra.job).expect("terminal").state,
        JobState::Done
    );

    let end = client.metrics().expect("metrics frame");
    assert!(
        counter(&end, "sfi_sched_preemptions_total", None)
            > counter(&before, "sfi_sched_preemptions_total", None)
    );
    assert!(
        counter(&end, "sfi_sched_quota_rejections_total", None)
            > counter(&before, "sfi_sched_quota_rejections_total", None)
    );
    assert!(
        counter(&end, "sfi_sched_evictions_total", None)
            > counter(&before, "sfi_sched_evictions_total", None)
    );
    assert!(
        counter(&end, "sfi_sched_evicted_bytes_total", None)
            > counter(&before, "sfi_sched_evicted_bytes_total", None)
    );

    // The same cumulative totals ride on pong, for clients that do not
    // speak the metrics frame.
    let info = client.ping().expect("pong");
    assert!(info.preemptions_total >= 1);
    assert!(info.evictions_total >= 1);

    // --- Events. -------------------------------------------------------
    let (events, _dropped) = client.events(None, None).expect("events frame");
    let events = events.as_arr().expect("array");
    assert!(!events.is_empty());
    let kinds: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("kind").and_then(Json::as_str))
        .collect();
    for expected in [
        "job_submitted",
        "job_started",
        "job_done",
        "job_preempted",
        "result_evicted",
    ] {
        assert!(kinds.contains(&expected), "missing {expected} in {kinds:?}");
    }
    // Timestamps are monotonic (oldest first) and the job filter works.
    let stamps: Vec<u64> = events
        .iter()
        .filter_map(|e| e.get("ts_us").and_then(Json::as_u64))
        .collect();
    assert!(stamps.windows(2).all(|w| w[0] <= w[1]), "oldest first");
    let (filtered, _) = client.events(Some(5), Some(low.job)).expect("events frame");
    let filtered = filtered.as_arr().expect("array");
    assert!(filtered.len() <= 5);
    assert!(filtered
        .iter()
        .all(|e| e.get("job").and_then(Json::as_u64) == Some(low.job)));

    // --- Prometheus listener. -----------------------------------------
    let addr = server.metrics_addr().expect("listener bound");
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("writes");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("reads");
    assert!(response.starts_with("HTTP/1.1 200 OK\r\n"));
    let body = response.split("\r\n\r\n").nth(1).expect("body");
    for needle in [
        "# TYPE sfi_trials_total counter",
        "# TYPE sfi_sched_queue_depth gauge",
        "# TYPE sfi_sched_job_wait_seconds histogram",
        "sfi_sched_job_wait_seconds_bucket{le=\"+Inf\"}",
        "sfi_iss_injected_faults_total{model=\"dta\"}",
    ] {
        assert!(body.contains(needle), "missing {needle:?} in exposition");
    }

    server.shutdown();
}
