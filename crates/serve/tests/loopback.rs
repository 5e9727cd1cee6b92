//! End-to-end loopback tests of the serve daemon: protocol round trips,
//! bit-identical results vs the direct engine, multi-job scheduling
//! (concurrency, priorities + preemption, per-client quotas, result
//! eviction), cancellation, malformed requests, warm
//! characterization-cache restarts, graceful shutdown, and what the
//! journal carries across a restart after a cancel or a stop.

use sfi_campaign::journal::Journal;
use sfi_campaign::{checkpoint, CampaignEngine, CampaignResult, CampaignSpec};
use sfi_core::json::Json;
use sfi_core::study::{CaseStudy, CaseStudyConfig};
use sfi_core::FaultModel;
use sfi_serve::client::Client;
use sfi_serve::jobs::{JobState, Priority};
use sfi_serve::protocol::{read_frame, write_frame, ErrorCode, PoffRequest};
use sfi_serve::server::{ServeConfig, Server};
use sfi_serve::wire::{BenchmarkDef, BudgetDef, CampaignDef, CellDef};
use std::io::BufReader;
use std::net::TcpStream;
use std::path::PathBuf;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sfi_serve_{name}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_fast_server() -> Server {
    Server::start(ServeConfig::fast_for_tests()).expect("daemon starts")
}

/// A 2-cell median campaign straddling the failure transition.
fn two_cell_def(sta: f64) -> CampaignDef {
    let mut def = CampaignDef::new("loopback", 42);
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

/// A longer campaign: `cells` median cells from just below the STA limit
/// upwards, so trials are slow enough for mid-run cancellation/preemption
/// to land.
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

/// Runs `def` directly on a local engine over a fresh fast study.
fn direct_run(def: &CampaignDef) -> (CampaignSpec, CampaignResult) {
    let study = CaseStudy::build(CaseStudyConfig::fast_for_tests());
    let spec = def.instantiate().expect("instantiates");
    let result = CampaignEngine::new().run(&study, &spec);
    (spec, result)
}

/// The bytes the daemon retains for a finished job: the result document
/// plus every streamed cell frame payload.
fn retained_bytes(spec: &CampaignSpec, result: &CampaignResult) -> usize {
    result.to_json(spec).to_string().len()
        + result
            .cells
            .iter()
            .map(|cell| checkpoint::cell_to_json(cell).to_string().len())
            .sum::<usize>()
}

#[test]
fn daemon_results_are_bit_identical_to_direct_engine_runs() {
    let server = start_fast_server();
    let mut client = Client::connect(server.local_addr()).expect("connects");

    let info = client.ping().expect("pong");
    assert_eq!(info.v, 1);
    assert!(!info.characterization_cache_hit, "no cache configured");
    assert_eq!(info.max_concurrent_jobs, 1);

    let def = two_cell_def(info.sta_limit_mhz);
    let ticket = client.submit(&def).expect("accepted");
    assert_eq!(ticket.total_cells, 2);
    assert_eq!(ticket.priority, Priority::Normal);

    // Stream the cells as they complete.
    let mut streamed = Vec::new();
    let state = client
        .stream(ticket.job, |cell| {
            streamed.push(checkpoint::cell_from_json(cell).expect("cell decodes"))
        })
        .expect("streams");
    assert_eq!(state, "done");
    assert_eq!(streamed.len(), 2);

    // The same campaign, run directly on an engine with the same spec.
    let (spec, direct) = direct_run(&def);

    streamed.sort_by_key(|cell| cell.cell);
    for (served, local) in streamed.iter().zip(&direct.cells) {
        assert_eq!(served.cell, local.cell);
        assert_eq!(served.trials.len(), local.trials.len());
        for (a, b) in served.trials.iter().zip(&local.trials) {
            assert_eq!(a.finished, b.finished);
            assert_eq!(a.correct, b.correct);
            assert_eq!(a.output_error.to_bits(), b.output_error.to_bits());
            assert_eq!(
                a.fi_rate_per_kcycle.to_bits(),
                b.fi_rate_per_kcycle.to_bits()
            );
            assert_eq!(a.cycles, b.cycles);
        }
    }

    // The retained result document equals the direct engine's export.
    let doc = client.result(ticket.job).expect("result");
    assert_eq!(doc.to_string(), direct.to_json(&spec).to_string());

    // Status agrees.
    let status = client.status(ticket.job).expect("status");
    assert_eq!(status.state, JobState::Done);
    assert_eq!(status.priority, Priority::Normal);
    assert_eq!(status.client, "anonymous");
    assert_eq!(status.completed_cells, 2);
    assert_eq!(status.executed_trials, 12);
    assert_eq!(status.preemptions, 0);
    assert!(!status.evicted);

    client.shutdown().expect("bye");
    server.join();
}

#[test]
fn two_jobs_run_concurrently_with_bit_identical_results() {
    let server = Server::start(ServeConfig {
        max_concurrent_jobs: 2,
        threads: Some(2),
        ..ServeConfig::fast_for_tests()
    })
    .expect("daemon starts");
    let mut client = Client::connect(server.local_addr()).expect("connects");
    let info = client.ping().expect("pong");
    assert_eq!(info.max_concurrent_jobs, 2);
    assert_eq!(info.threads_per_job, 1, "2 threads split across 2 slots");

    let sta = info.sta_limit_mhz;
    let def_a = long_def("concurrent-a", sta, 12, 10);
    let def_b = long_def("concurrent-b", sta, 12, 10);
    let a = client.submit(&def_a).expect("accepted");
    let b = client.submit(&def_b).expect("accepted");

    // Both jobs must be observed running at the same instant.
    let mut observed_concurrent = false;
    for _ in 0..500 {
        let sa = client.status(a.job).expect("status");
        let sb = client.status(b.job).expect("status");
        if sa.state == JobState::Running && sb.state == JobState::Running {
            observed_concurrent = true;
            break;
        }
        if sa.is_terminal() && sb.is_terminal() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert!(
        observed_concurrent,
        "with two scheduler slots both jobs must make progress concurrently"
    );

    assert_eq!(client.wait(a.job).expect("terminal").state, JobState::Done);
    assert_eq!(client.wait(b.job).expect("terminal").state, JobState::Done);

    // Each result is bit-identical to a direct single-job engine run.
    for (def, ticket) in [(&def_a, a), (&def_b, b)] {
        let (spec, direct) = direct_run(def);
        let doc = client.result(ticket.job).expect("result");
        assert_eq!(doc.to_string(), direct.to_json(&spec).to_string());
    }

    server.shutdown();
}

#[test]
fn queued_quota_rejects_the_excess_submission_per_client() {
    let server = Server::start(ServeConfig {
        max_queued_per_client: Some(1),
        ..ServeConfig::fast_for_tests()
    })
    .expect("daemon starts");
    let mut alice = Client::connect(server.local_addr()).expect("connects");
    let mut bob = Client::connect(server.local_addr()).expect("connects");
    let sta = alice.ping().expect("pong").sta_limit_mhz;

    // Alice's first job occupies the single scheduler slot...
    let running = alice
        .submit_with(
            &long_def("alice-1", sta, 64, 50),
            Priority::Normal,
            Some("alice"),
        )
        .expect("accepted");
    // (wait until the scheduler actually moved it out of the queue, so
    // the quota below counts only genuinely queued jobs)
    while alice.status(running.job).expect("status").state == JobState::Queued {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    // ...her second waits in the queue, saturating her queued quota...
    let queued = alice
        .submit_with(&two_cell_def(sta), Priority::Normal, Some("alice"))
        .expect("accepted");
    // ...so her third submission is rejected with the typed error.
    let err = alice
        .submit_with(&two_cell_def(sta), Priority::Normal, Some("alice"))
        .expect_err("quota exhausted");
    assert_eq!(err.code(), Some(ErrorCode::QuotaExceeded), "{err}");

    // Quotas are accounted per client id: bob still has his own slot...
    let bob_job = bob
        .submit_with(&two_cell_def(sta), Priority::Normal, Some("bob"))
        .expect("accepted");
    // ...and exactly one, like alice.
    let err = bob
        .submit_with(&two_cell_def(sta), Priority::Normal, Some("bob"))
        .expect_err("quota exhausted");
    assert_eq!(err.code(), Some(ErrorCode::QuotaExceeded), "{err}");

    // Cancelling the queued job frees alice's quota immediately.
    alice.cancel(queued.job).expect("cancels");
    alice
        .submit_with(&two_cell_def(sta), Priority::Normal, Some("alice"))
        .expect("quota freed");

    // Drain: cancel the long runner so the daemon shuts down promptly.
    alice.cancel(running.job).expect("cancels");
    let _ = alice.wait(running.job).expect("terminal");
    let _ = bob.wait(bob_job.job).expect("terminal");
    server.shutdown();
}

#[test]
fn high_priority_preempts_low_and_the_resumed_result_is_bit_identical() {
    let server = start_fast_server();
    let mut client = Client::connect(server.local_addr()).expect("connects");
    let sta = client.ping().expect("pong").sta_limit_mhz;

    // A long low-priority campaign, slow enough that the high-priority
    // job arrives mid-run.
    let low_def = long_def("preempt-victim", sta, 48, 30);
    let low = client
        .submit_with(&low_def, Priority::Low, Some("batch"))
        .expect("accepted");

    // Wait until it is actually running and has completed at least one
    // cell, so the preemption checkpoint is non-trivial.
    loop {
        let status = client.status(low.job).expect("status");
        if status.state == JobState::Running && status.completed_cells >= 1 {
            break;
        }
        assert!(
            !status.is_terminal(),
            "the low job must not finish before the high one is submitted"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }

    // The high-priority job takes the single slot away from it.
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
    let high_status = client.wait(high.job).expect("terminal");
    assert_eq!(high_status.state, JobState::Done);

    // While the high job ran, the low one was preempted back into the
    // queue; it resumes and completes.
    let low_status = client.wait(low.job).expect("terminal");
    assert_eq!(low_status.state, JobState::Done);
    assert!(
        low_status.preemptions >= 1,
        "the low job must have been preempted at least once, got {}",
        low_status.preemptions
    );
    assert_eq!(low_status.completed_cells, 48);

    // The preempted-and-resumed result is bit-identical to a direct,
    // never-interrupted engine run of the same spec.
    let (spec, direct) = direct_run(&low_def);
    let doc = client.result(low.job).expect("result");
    assert_eq!(doc.to_string(), direct.to_json(&spec).to_string());

    // The stream replays every cell exactly once despite the preemption.
    let mut cells = Vec::new();
    let state = client
        .stream(low.job, |cell| {
            cells.push(checkpoint::cell_from_json(cell).expect("cell decodes").cell)
        })
        .expect("streams");
    assert_eq!(state, "done");
    let mut sorted = cells.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), 48, "48 distinct cells");
    assert_eq!(cells.len(), 48, "no duplicates in the stream");

    server.shutdown();
}

#[test]
fn results_are_evicted_lru_once_the_cap_is_exceeded() {
    // Size the cap from a local run of the same campaign: it holds two
    // retained results but not three.
    let study = CaseStudy::build(CaseStudyConfig::fast_for_tests());
    let def = two_cell_def(study.sta_limit_mhz(0.7));
    let spec = def.instantiate().expect("instantiates");
    let local = CampaignEngine::new().run(&study, &spec);
    let single = retained_bytes(&spec, &local);
    let cap = single * 2 + single / 2;

    let server = Server::start(ServeConfig {
        result_cap_bytes: Some(cap),
        ..ServeConfig::fast_for_tests()
    })
    .expect("daemon starts");
    let mut client = Client::connect(server.local_addr()).expect("connects");

    let submit_and_wait = |client: &mut Client| {
        let ticket = client.submit(&def).expect("accepted");
        let status = client.wait(ticket.job).expect("terminal");
        assert_eq!(status.state, JobState::Done);
        ticket.job
    };

    let job1 = submit_and_wait(&mut client);
    let job2 = submit_and_wait(&mut client);
    // Both fit under the cap; fetching job1 makes job2 the LRU entry.
    let doc1 = client.result(job1).expect("retained");
    assert_eq!(doc1.to_string(), local.to_json(&spec).to_string());
    let info = client.ping().expect("pong");
    assert_eq!(info.result_cap_bytes, Some(cap));
    assert_eq!(info.retained_result_bytes, single * 2);

    // The third finished job pushes the total over the cap: the
    // least-recently-fetched result (job2) is evicted.
    let job3 = submit_and_wait(&mut client);
    let err = client.result(job2).expect_err("evicted");
    assert_eq!(err.code(), Some(ErrorCode::ResultEvicted), "{err}");
    let err = client.stream(job2, |_| {}).expect_err("cells evicted too");
    assert_eq!(err.code(), Some(ErrorCode::ResultEvicted), "{err}");

    // The status survives eviction and reports it.
    let status = client.status(job2).expect("status");
    assert_eq!(status.state, JobState::Done);
    assert!(status.evicted);

    // The touched and the fresh results are still retrievable.
    assert!(client.result(job1).is_ok());
    assert!(client.result(job3).is_ok());
    assert_eq!(
        client.ping().expect("pong").retained_result_bytes,
        single * 2
    );

    server.shutdown();
}

#[test]
fn poff_query_brackets_the_sta_limit() {
    let server = start_fast_server();
    let mut client = Client::connect(server.local_addr()).expect("connects");
    let sta = client.ping().expect("pong").sta_limit_mhz;

    // Model B is a hard threshold at the STA limit — the daemon's answer
    // must bracket it to the requested resolution.
    let reply = client
        .poff(&PoffRequest {
            benchmark: BenchmarkDef::Median {
                values: 21,
                seed: 3,
            },
            model: FaultModel::StaPeriodViolation,
            vdd: 0.7,
            noise_sigma_mv: 0.0,
            lo_mhz: sta * 0.9,
            hi_mhz: sta * 1.3,
            resolution_mhz: sta * 0.01,
            trials: 2,
            seed: 9,
        })
        .expect("poff");
    let poff = reply.poff_mhz.expect("fails above the STA limit");
    assert!(
        poff > sta && poff <= sta * 1.011,
        "PoFF {poff:.1} MHz should bracket STA {sta:.1} MHz"
    );
    assert!(reply.cells_evaluated >= 3);
    assert!(!reply.evaluated.is_empty());

    // Uncharacterized voltages are rejected, not a daemon panic.
    let err = client
        .poff(&PoffRequest {
            benchmark: BenchmarkDef::Median {
                values: 21,
                seed: 3,
            },
            model: FaultModel::StaPeriodViolation,
            vdd: 0.95,
            noise_sigma_mv: 0.0,
            lo_mhz: 600.0,
            hi_mhz: 900.0,
            resolution_mhz: 10.0,
            trials: 2,
            seed: 9,
        })
        .expect_err("uncharacterized voltage");
    assert_eq!(err.code(), Some(ErrorCode::BadRequest), "{err}");

    // The same guard applies to submitted campaigns: a cell whose model
    // needs a characterization the daemon lacks is rejected at submit
    // time with a clean error instead of failing the job at run time.
    let mut def = two_cell_def(sta);
    def.cells[0].vdd = 0.95;
    let err = client.submit(&def).expect_err("uncharacterized cell vdd");
    assert_eq!(err.code(), Some(ErrorCode::BadRequest), "{err}");

    server.shutdown();
}

#[test]
fn jobs_can_be_cancelled() {
    let server = start_fast_server();
    let mut client = Client::connect(server.local_addr()).expect("connects");
    let sta = client.ping().expect("pong").sta_limit_mhz;

    // A long campaign: plenty of cells so cancellation lands mid-run.
    let def = long_def("cancelme", sta, 64, 50);
    let ticket = client.submit(&def).expect("accepted");
    client.cancel(ticket.job).expect("cancels");
    let status = client.wait(ticket.job).expect("terminal");
    assert_eq!(status.state, JobState::Cancelled);
    assert!(
        status.completed_cells < 64,
        "cancellation must cut the campaign short, got {} cells",
        status.completed_cells
    );

    // Streaming a cancelled job terminates with the cancelled state.
    let state = client.stream(ticket.job, |_| {}).expect("stream ends");
    assert_eq!(state, "cancelled");

    // A cancelled job retains no result document.
    let err = client.result(ticket.job).expect_err("no result");
    assert_eq!(err.code(), Some(ErrorCode::NoResult), "{err}");

    // Unknown jobs are typed server errors, not hangs.
    let err = client.status(9999).expect_err("unknown job");
    assert_eq!(err.code(), Some(ErrorCode::UnknownJob), "{err}");

    server.shutdown();
}

#[test]
fn a_cancelled_queued_job_stays_cancelled_after_a_restart() {
    let dir = temp_dir("cancel_queued");
    let mut config = ServeConfig::fast_for_tests();
    config.state_dir = Some(dir.clone());
    let server = Server::start(config.clone()).expect("daemon starts");
    let mut client = Client::connect(server.local_addr()).expect("connects");
    let sta = client.ping().expect("pong").sta_limit_mhz;

    // One job slot: the long job holds it, so the second one waits.
    let running = client
        .submit(&long_def("holds-the-slot", sta, 64, 50))
        .expect("accepted");
    let queued = client.submit(&two_cell_def(sta)).expect("accepted");
    assert_eq!(
        client.status(queued.job).expect("status").state,
        JobState::Queued
    );
    client.cancel(queued.job).expect("cancels");
    assert_eq!(
        client.status(queued.job).expect("status").state,
        JobState::Cancelled
    );
    client.cancel(running.job).expect("cancels");
    client.wait(running.job).expect("terminal");
    client.shutdown().expect("bye");
    server.join();

    // The restarted daemon replays the cancel instead of requeueing the
    // job.
    let server = Server::start(config).expect("daemon restarts");
    let mut client = Client::connect(server.local_addr()).expect("connects");
    let status = client.status(queued.job).expect("job survived");
    assert_eq!(status.state, JobState::Cancelled);
    assert_eq!(status.completed_cells, 0);
    client.shutdown().expect("bye");
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Submits a slow campaign to a daemon journaling into `dir`, stops the
/// daemon with `stop` once a cell has completed, then restarts it on the
/// same journal: the job must resume and finish byte-identical to a
/// direct engine run.
fn stopped_job_resumes(name: &str, drain_timeout_seconds: f64, stop: fn(&mut Client)) {
    let dir = temp_dir(name);
    let mut config = ServeConfig::fast_for_tests();
    config.state_dir = Some(dir.clone());
    config.drain_timeout_seconds = drain_timeout_seconds;
    let server = Server::start(config.clone()).expect("daemon starts");
    let mut client = Client::connect(server.local_addr()).expect("connects");
    let sta = client.ping().expect("pong").sta_limit_mhz;
    let def = long_def(name, sta, 5, 200);
    let ticket = client.submit(&def).expect("accepted");
    loop {
        let status = client.status(ticket.job).expect("status");
        if status.completed_cells >= 1 {
            assert!(
                !status.is_terminal(),
                "campaign finished before the stop could land; make it longer"
            );
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    stop(&mut client);
    drop(client);
    server.join();

    let server = Server::start(config).expect("daemon restarts");
    let mut client = Client::connect(server.local_addr()).expect("connects");
    let status = client.wait(ticket.job).expect("job survives the stop");
    assert_eq!(
        status.state,
        JobState::Done,
        "{name}: the stop is not a cancel"
    );
    let doc = client.result(ticket.job).expect("result").to_string();
    let (spec, direct) = direct_run(&def);
    assert_eq!(doc, direct.to_json(&spec).to_string(), "{name}");
    client.shutdown().expect("bye");
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_job_interrupted_by_shutdown_resumes_bit_identically() {
    stopped_job_resumes("stop_shutdown", 120.0, |client| {
        client.shutdown().expect("bye");
    });
}

#[test]
fn a_job_interrupted_by_a_drain_timeout_resumes_bit_identically() {
    stopped_job_resumes("stop_drain", 0.0, |client| {
        assert_eq!(client.drain().expect("drain starts"), 1);
    });
}

#[test]
fn a_live_job_restored_under_another_study_fails_instead_of_resuming() {
    // A live job with at least one journaled cell, simulated under the
    // fast study.
    let dir = temp_dir("other_study");
    let mut config = ServeConfig::fast_for_tests();
    config.state_dir = Some(dir.clone());
    let server = Server::start(config.clone()).expect("daemon starts");
    let mut client = Client::connect(server.local_addr()).expect("connects");
    let sta = client.ping().expect("pong").sta_limit_mhz;
    let def = long_def("other-study", sta, 5, 200);
    let ticket = client.submit(&def).expect("accepted");
    while client.status(ticket.job).expect("status").completed_cells == 0 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    client.shutdown().expect("bye");
    server.join();

    // The same state directory under a study that differs in one field:
    // the journaled cells came from another characterization.
    let submitted_under = config.study.fingerprint();
    config.study.seed += 1;
    let restarted_under = config.study.fingerprint();
    let server = Server::start(config.clone()).expect("daemon restarts");
    let mut client = Client::connect(server.local_addr()).expect("connects");
    let status = client.status(ticket.job).expect("job survived");
    assert_eq!(status.state, JobState::Failed);
    assert_eq!(status.completed_cells, 0);
    let error = status.error.expect("the failure names its reason");
    assert!(
        error.contains(&submitted_under.to_string())
            && error.contains(&restarted_under.to_string()),
        "{error}"
    );
    client.shutdown().expect("bye");
    server.join();

    // The job stays live in the journal: back under its own study, it
    // resumes to the result of an uninterrupted run.
    config.study.seed -= 1;
    let server = Server::start(config).expect("daemon restarts");
    let mut client = Client::connect(server.local_addr()).expect("connects");
    assert_eq!(
        client.wait(ticket.job).expect("resumes").state,
        JobState::Done
    );
    let (spec, direct) = direct_run(&def);
    assert_eq!(
        client.result(ticket.job).expect("result").to_string(),
        direct.to_json(&spec).to_string()
    );
    client.shutdown().expect("bye");
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn terminal_job_statuses_read_the_same_after_restarts() {
    let dir = temp_dir("status_restarts");
    let mut config = ServeConfig::fast_for_tests();
    config.state_dir = Some(dir.clone());
    let server = Server::start(config.clone()).expect("daemon starts");
    let mut client = Client::connect(server.local_addr()).expect("connects");
    let sta = client.ping().expect("pong").sta_limit_mhz;

    let done = client.submit(&two_cell_def(sta)).expect("accepted");
    client.wait(done.job).expect("terminal");
    // Cancelled by the client once two of its eight cells are done.
    let cancelled = client
        .submit(&long_def("cancel-mid-run", sta, 8, 200))
        .expect("accepted");
    while client
        .status(cancelled.job)
        .expect("status")
        .completed_cells
        < 2
    {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    client.cancel(cancelled.job).expect("cancels");
    client.wait(cancelled.job).expect("terminal");
    let before = [done.job, cancelled.job].map(|job| client.status(job).expect("status"));
    assert_eq!(before[0].state, JobState::Done);
    assert_eq!(before[1].state, JobState::Cancelled);
    assert!(before[1].completed_cells < 8, "the cancel landed mid-run");
    client.shutdown().expect("bye");
    server.join();

    for restart in 1..=2 {
        let server = Server::start(config.clone()).expect("daemon restarts");
        let mut client = Client::connect(server.local_addr()).expect("connects");
        for expected in &before {
            let status = client.status(expected.job).expect("job survived");
            assert!(status.evicted, "result bytes are not journaled");
            let expected = sfi_serve::jobs::JobStatus {
                evicted: true,
                ..expected.clone()
            };
            assert_eq!(status, expected, "after restart {restart}");
        }
        client.shutdown().expect("bye");
        server.join();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_resumed_job_streams_the_cells_of_its_result_document() {
    let study = CaseStudy::build(CaseStudyConfig::fast_for_tests());
    let def = two_cell_def(study.sta_limit_mhz(0.7));
    let (spec, direct) = direct_run(&def);

    // A journal left by a daemon that died mid-job, whose last cell
    // record lost a trial: the cell is not one the engine can produce.
    let dir = temp_dir("truncated_cell");
    let mut truncated = direct.cells[0].clone();
    truncated.trials.pop();
    let journal =
        Journal::open(&dir.join(sfi_serve::journal::JOURNAL_FILE)).expect("journal opens");
    for record in [
        sfi_serve::journal::submit_record(1, &def.to_json(), Priority::Normal, "ci", None),
        sfi_serve::journal::start_record(1),
        sfi_serve::journal::cell_record(1, &checkpoint::cell_to_json(&truncated)),
    ] {
        journal.append(&record).expect("appends");
    }
    drop(journal);

    let mut config = ServeConfig::fast_for_tests();
    config.state_dir = Some(dir.clone());
    let server = Server::start(config).expect("daemon starts");
    let mut client = Client::connect(server.local_addr()).expect("connects");
    let status = client.wait(1).expect("the journaled job runs");
    assert_eq!(status.state, JobState::Done);

    let mut streamed = Vec::new();
    client
        .stream(1, |cell| streamed.push(cell.clone()))
        .expect("streams");
    streamed.sort_by_key(|cell| cell.get("cell").and_then(Json::as_u64));
    let document = client.result(1).expect("result");
    let cells = document.get("cells").and_then(Json::as_arr).expect("cells");
    let expected = direct.to_json(&spec);
    let expected_cells = expected.get("cells").and_then(Json::as_arr).expect("cells");
    let text = |cells: &[Json]| cells.iter().map(Json::to_string).collect::<Vec<_>>();
    assert_eq!(text(&streamed), text(cells), "stream and result agree");
    assert_eq!(text(cells), text(expected_cells), "and equal a clean run");
    assert_eq!(document.to_string(), expected.to_string());
    assert_eq!(
        status.executed_trials, 12,
        "the trial budget, simulated once"
    );
    client.shutdown().expect("bye");
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_requests_get_error_frames_and_the_connection_survives() {
    let server = start_fast_server();
    let stream = TcpStream::connect(server.local_addr()).expect("connects");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;

    let roundtrip = |writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str| {
        use std::io::Write as _;
        writer.write_all(line.as_bytes()).expect("writes");
        writer.write_all(b"\n").expect("writes");
        writer.flush().expect("flushes");
        read_frame(reader)
            .expect("io ok")
            .expect("not eof")
            .expect("server frames always parse")
    };

    // Not JSON at all.
    let reply = roundtrip(&mut writer, &mut reader, "this is not json");
    assert_eq!(reply.get("type").and_then(Json::as_str), Some("error"));
    assert_eq!(
        reply.get("code").and_then(Json::as_str),
        Some("bad_request")
    );

    // Valid JSON, unknown request type.
    let reply = roundtrip(&mut writer, &mut reader, "{\"type\":\"frobnicate\"}");
    assert_eq!(reply.get("type").and_then(Json::as_str), Some("error"));
    assert_eq!(
        reply.get("code").and_then(Json::as_str),
        Some("bad_request")
    );

    // `alerts` is a retired v1 request type: refused like any unknown
    // type (docs/PROTOCOL.md, "Deliberate v1 exceptions").
    let reply = roundtrip(&mut writer, &mut reader, "{\"type\":\"alerts\"}");
    assert_eq!(reply.get("type").and_then(Json::as_str), Some("error"));
    assert_eq!(
        reply.get("code").and_then(Json::as_str),
        Some("bad_request")
    );

    // Valid type, bad payload.
    let reply = roundtrip(
        &mut writer,
        &mut reader,
        "{\"type\":\"submit\",\"spec\":{\"name\":\"x\"}}",
    );
    assert_eq!(reply.get("type").and_then(Json::as_str), Some("error"));

    // An out-of-vocabulary priority is rejected, not defaulted.
    let reply = roundtrip(
        &mut writer,
        &mut reader,
        "{\"type\":\"submit\",\"priority\":\"urgent\",\"spec\":{\"name\":\"x\",\"seed\":\"1\",\
         \"benchmarks\":[],\"cells\":[]}}",
    );
    assert_eq!(reply.get("type").and_then(Json::as_str), Some("error"));

    // The connection is still usable for a real request.
    write_frame(
        &mut writer,
        &Json::obj([("type", Json::Str("ping".into()))]),
    )
    .expect("writes");
    let reply = read_frame(&mut reader).unwrap().unwrap().unwrap();
    assert_eq!(reply.get("type").and_then(Json::as_str), Some("pong"));
    assert_eq!(reply.get("v").and_then(Json::as_u64), Some(1));

    server.shutdown();
}

#[test]
fn warm_cache_restart_skips_the_dta_rebuild() {
    let cache_dir = temp_dir("warmcache");
    let config = ServeConfig {
        cache_dir: Some(cache_dir.clone()),
        ..ServeConfig::fast_for_tests()
    };

    // Cold start: computes and persists the characterization.
    let first = Server::start(config.clone()).expect("cold start");
    assert!(!first.cache_hit());
    let mut client = Client::connect(first.local_addr()).expect("connects");
    let cold_info = client.ping().expect("pong");
    assert!(!cold_info.characterization_cache_hit);
    client.shutdown().expect("bye");
    first.join();

    // Second daemon start with the same config: warm, and the physics is
    // identical.
    let second = Server::start(config).expect("warm start");
    assert!(second.cache_hit(), "second start must hit the cache");
    let mut client = Client::connect(second.local_addr()).expect("connects");
    let warm_info = client.ping().expect("pong");
    assert!(warm_info.characterization_cache_hit);
    assert_eq!(warm_info.sta_limit_mhz, cold_info.sta_limit_mhz);
    assert_eq!(warm_info.study_fingerprint, cold_info.study_fingerprint);

    // Warm-served campaign results equal a cold direct run.
    let def = two_cell_def(warm_info.sta_limit_mhz);
    let ticket = client.submit(&def).expect("accepted");
    let doc = {
        let state = client.stream(ticket.job, |_| {}).expect("streams");
        assert_eq!(state, "done");
        client.result(ticket.job).expect("result")
    };
    let (spec, direct) = direct_run(&def);
    assert_eq!(doc.to_string(), direct.to_json(&spec).to_string());

    second.shutdown();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn shutdown_request_stops_the_daemon() {
    let server = start_fast_server();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connects");
    client.shutdown().expect("bye");
    // join() returns because the accept loop and scheduler exited.
    server.join();
    // New connections are refused or die immediately — either way, no
    // daemon is left behind serving pings.
    if let Ok(mut late) = Client::connect(addr) {
        assert!(late.ping().is_err(), "daemon must be gone after shutdown");
    }
}

#[test]
fn zoo_kernels_are_constructible_by_wire_recipe_and_exact_fault_free() {
    let server = start_fast_server();
    let mut client = Client::connect(server.local_addr()).expect("connects");
    let sta = client.ping().expect("pong").sta_limit_mhz;

    // The recipes exactly as a remote client would send them over the
    // wire (kind + parameters, decimal-string seeds).
    let recipes = [
        r#"{"kind":"fft","n":16,"seed":"3"}"#,
        r#"{"kind":"fir","taps":4,"outputs":16,"seed":"3"}"#,
        r#"{"kind":"crc32","words":16,"seed":"3"}"#,
        r#"{"kind":"bitonic","n":16,"seed":"3"}"#,
    ];
    let mut def = CampaignDef::new("zoo", 7);
    for recipe in recipes {
        let doc = Json::parse(recipe).expect("valid JSON");
        let b = def.add_benchmark(BenchmarkDef::from_json(&doc).expect("recipe decodes"));
        def.cells.push(CellDef {
            benchmark: b,
            model: FaultModel::None,
            freq_mhz: sta,
            vdd: 0.7,
            noise_sigma_mv: 0.0,
            budget: BudgetDef::fixed(2),
        });
    }
    let ticket = client.submit(&def).expect("accepted");
    let mut cells = Vec::new();
    let state = client
        .stream(ticket.job, |cell| {
            cells.push(checkpoint::cell_from_json(cell).expect("cell decodes"));
        })
        .expect("streams");
    assert_eq!(state, "done");
    assert_eq!(cells.len(), 4);
    for cell in &cells {
        assert_eq!(cell.trials.len(), 2);
        for trial in &cell.trials {
            assert!(trial.finished && trial.correct);
            assert_eq!(trial.output_error, 0.0, "fault-free nominal runs are exact");
        }
    }

    // An unknown recipe kind is rejected at submit time with an error
    // quoting the full supported set.
    use std::io::Write as _;
    let stream = TcpStream::connect(server.local_addr()).expect("connects");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let bad = "{\"type\":\"submit\",\"spec\":{\"name\":\"x\",\"seed\":\"1\",\
               \"benchmarks\":[{\"kind\":\"sha256\",\"seed\":\"1\"}],\"cells\":[]}}";
    writer.write_all(bad.as_bytes()).expect("writes");
    writer.write_all(b"\n").expect("writes");
    writer.flush().expect("flushes");
    let reply = read_frame(&mut reader)
        .expect("io ok")
        .expect("not eof")
        .expect("server frames always parse");
    assert_eq!(reply.get("type").and_then(Json::as_str), Some("error"));
    assert_eq!(
        reply.get("code").and_then(Json::as_str),
        Some("bad_request")
    );
    let message = reply
        .get("message")
        .and_then(Json::as_str)
        .expect("error message");
    assert!(
        message.contains("unknown benchmark kind 'sha256'"),
        "{message}"
    );
    for kind in sfi_serve::wire::supported_kinds() {
        assert!(message.contains(kind), "{message} must list {kind}");
    }

    server.shutdown();
}
