//! Loopback test for the `trace` frame: Chrome trace-event objects
//! carrying job-lifecycle, campaign, cell and trial spans.
//!
//! It lives in its own test binary (= its own process) so the
//! process-global trace store only holds records of jobs this binary
//! submitted; assertions filter by job id and anchor on the campaign
//! name, so they need no serialization against other tests.

use sfi_core::json::Json;
use sfi_core::FaultModel;
use sfi_serve::client::Client;
use sfi_serve::server::{ServeConfig, Server};
use sfi_serve::wire::{BenchmarkDef, BudgetDef, CampaignDef, CellDef};

/// A numeric member of a Chrome trace event's `args` object.
fn arg(record: &Json, key: &str) -> Option<u64> {
    record.get("args")?.get(key)?.as_u64()
}

#[test]
fn trace_frame_carries_lifecycle_and_engine_spans() {
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
        let ph = record.get("ph").and_then(Json::as_str).expect("ph");
        assert!(ph == "X" || ph == "C", "known phase: {record}");
        assert!(record.get("ts").and_then(Json::as_u64).is_some());
        if ph == "X" {
            assert_eq!(
                arg(record, "job"),
                Some(ticket.job),
                "job-filtered spans all carry the job id: {record}"
            );
        }
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
        .and_then(|r| arg(r, "id"))
        .expect("campaign span id");
    assert!(
        records.iter().any(|r| {
            r.get("name").and_then(Json::as_str) == Some("trial")
                && arg(r, "parent") == Some(campaign_id)
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
