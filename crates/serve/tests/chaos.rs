//! Chaos tests of the serve daemon's crash/fault robustness: kill -9
//! mid-campaign with bit-identical journal recovery, graceful drain,
//! torn journal tails, fault-injected connections (mid-frame cuts, byte
//! corruption) against the retrying client, and silent-peer deadlines.
//!
//! The kill -9 test drives the real `sfi-serve` binary as a child
//! process — an in-process server cannot be SIGKILLed without taking
//! the test harness down with it.  Everything else runs in-process.

use sfi_campaign::checkpoint;
use sfi_core::json::Json;
use sfi_core::FaultModel;
use sfi_serve::chaos::{ChaosProxy, FaultPlan};
use sfi_serve::client::{Client, RetryPolicy, RetryingClient};
use sfi_serve::jobs::{JobState, Priority};
use sfi_serve::protocol::ErrorCode;
use sfi_serve::server::{ServeConfig, Server};
use sfi_serve::wire::{BenchmarkDef, BudgetDef, CampaignDef, CellDef};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sfi_chaos_{name}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A 2-cell median campaign straddling the failure transition.
fn two_cell_def(sta: f64) -> CampaignDef {
    let mut def = CampaignDef::new("chaos", 42);
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

/// A campaign slow enough that a kill or drain lands mid-run.
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

/// Sums a counter family across its samples from a `metrics` snapshot.
fn counter_total(snapshot: &Json, family: &str) -> u64 {
    snapshot
        .get("families")
        .and_then(Json::as_arr)
        .expect("snapshot has families")
        .iter()
        .find(|f| f.get("name").and_then(Json::as_str) == Some(family))
        .unwrap_or_else(|| panic!("metric family {family} is registered"))
        .get("samples")
        .and_then(Json::as_arr)
        .expect("family has samples")
        .iter()
        .filter_map(|s| s.get("value").and_then(Json::as_str))
        .filter_map(|v| v.parse::<u64>().ok())
        .sum()
}

/// The real daemon binary as a child process, killable with SIGKILL.
struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    fn start(extra: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_sfi-serve"))
            .args(["--fast", "--addr", "127.0.0.1:0", "--threads", "1"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("daemon spawns");
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut reader = BufReader::new(stdout);
        let addr = loop {
            let mut line = String::new();
            if reader.read_line(&mut line).expect("daemon stdout reads") == 0 {
                panic!("daemon exited before announcing its address");
            }
            if let Some(rest) = line.trim().strip_prefix("sfi-serve listening on ") {
                break rest.parse().expect("announced address parses");
            }
        };
        // Keep draining stdout so the pipe can never fill and block the
        // daemon.
        std::thread::spawn(move || {
            let mut sink = Vec::new();
            let _ = reader.read_to_end(&mut sink);
        });
        Daemon { child, addr }
    }

    /// SIGKILL: no drain, no journal flush beyond what already hit disk.
    fn kill_nine(mut self) {
        self.child.kill().expect("SIGKILL lands");
        self.child.wait().expect("child reaped");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn kill_nine_mid_campaign_then_restart_recovers_bit_identically() {
    let dir = temp_dir("kill9");
    let state = dir.to_str().expect("utf-8 temp path").to_string();

    // Submit a slow campaign and SIGKILL the daemon once at least one
    // cell has been journaled but the job is still running.
    let daemon = Daemon::start(&["--state-dir", &state]);
    let mut client = Client::connect(daemon.addr).expect("connects");
    let sta = client.ping().expect("pong").sta_limit_mhz;
    let def = long_def("chaos-kill9", sta, 6, 30);
    let ticket = client
        .submit_keyed(&def, Priority::Normal, Some("chaos"), Some("kill9-1"))
        .expect("accepted");
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let status = client.status(ticket.job).expect("status");
        if status.completed_cells >= 1 {
            assert!(
                !status.is_terminal(),
                "campaign finished before the kill could land; make it longer"
            );
            break;
        }
        assert!(Instant::now() < deadline, "no cell completed in time");
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(client);
    daemon.kill_nine();

    // Restart on the same state dir: the job resumes from its journaled
    // cells and finishes.
    let daemon = Daemon::start(&["--state-dir", &state]);
    let mut client = Client::connect(daemon.addr).expect("reconnects");
    let status = client.wait(ticket.job).expect("job survives the restart");
    assert_eq!(status.state, JobState::Done);
    assert!(!status.evicted, "a resumed job retains its result");

    // The idempotency key survived the crash: resubmitting returns the
    // original job instead of creating a duplicate.
    let again = client
        .submit_keyed(&def, Priority::Normal, Some("chaos"), Some("kill9-1"))
        .expect("resubmit accepted");
    assert_eq!(again.job, ticket.job);

    // Streamed cells: exactly one per cell index, none lost or doubled.
    let mut streamed = Vec::new();
    client
        .stream(ticket.job, |cell| streamed.push(cell.to_string()))
        .expect("streams");
    let mut decoded: Vec<_> = streamed
        .iter()
        .map(|text| {
            checkpoint::cell_from_json(&Json::parse(text).expect("cell parses"))
                .expect("cell decodes")
        })
        .collect();
    decoded.sort_by_key(|cell| cell.cell);
    assert_eq!(decoded.len(), def.cells.len());
    for (index, cell) in decoded.iter().enumerate() {
        assert_eq!(cell.cell, index, "deduped cell set covers every cell once");
    }

    let recovered_doc = client.result(ticket.job).expect("result").to_string();
    let snapshot = client.metrics().expect("metrics");
    assert!(
        counter_total(&snapshot, "sfi_recovered_jobs_total") >= 1,
        "the restart must count the recovered job"
    );
    assert!(
        counter_total(&snapshot, "sfi_journal_replayed_records_total") >= 2,
        "the restart must count replayed journal records"
    );
    drop(client);
    drop(daemon);

    // A clean, uninterrupted daemon run of the same campaign produces
    // byte-identical result JSON and streamed cells.
    let daemon = Daemon::start(&[]);
    let mut client = Client::connect(daemon.addr).expect("connects");
    let clean = client.submit(&def).expect("accepted");
    let mut clean_cells = Vec::new();
    let state = client
        .stream(clean.job, |cell| clean_cells.push(cell.to_string()))
        .expect("streams");
    assert_eq!(state, "done");
    let clean_doc = client.result(clean.job).expect("result").to_string();

    assert_eq!(
        recovered_doc, clean_doc,
        "recovered result must be byte-identical to an uninterrupted run"
    );
    streamed.sort();
    clean_cells.sort();
    assert_eq!(
        streamed, clean_cells,
        "recovered streamed cell set must be byte-identical to an uninterrupted run"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drain_finishes_running_jobs_refuses_new_submits_and_exits() {
    let mut config = ServeConfig::fast_for_tests();
    config.drain_timeout_seconds = 120.0;
    let server = Server::start(config).expect("daemon starts");
    let addr = server.local_addr();

    let mut client = Client::connect(addr).expect("connects");
    let info = client.ping().expect("pong");
    assert!(!info.draining, "a fresh daemon is not draining");
    let def = long_def("chaos-drain", info.sta_limit_mhz, 3, 25);
    let ticket = client.submit(&def).expect("accepted");
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let status = client.status(ticket.job).expect("status");
        if status.state == JobState::Running {
            break;
        }
        assert!(Instant::now() < deadline, "job never started running");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Drain from a second connection: the running job keeps going, new
    // submits are refused with the typed transient error, and pong
    // reports the drain.
    let mut other = Client::connect(addr).expect("connects");
    assert_eq!(other.drain().expect("drain starts"), 1);
    let _ = other.drain().expect("drain is idempotent");
    assert!(other.ping().expect("pong").draining);
    let err = other
        .submit(&two_cell_def(info.sta_limit_mhz))
        .expect_err("draining daemon refuses submits");
    assert_eq!(err.code(), Some(ErrorCode::Draining));

    // The in-flight job runs to completion...
    let status = client.wait(ticket.job).expect("job finishes");
    assert_eq!(status.state, JobState::Done);
    drop(client);
    drop(other);

    // ...and the daemon then exits on its own: join() returns without
    // anyone sending `shutdown`.
    server.join();
}

#[test]
fn silent_connections_are_dropped_at_the_deadline() {
    let mut config = ServeConfig::fast_for_tests();
    config.conn_timeout_seconds = 0.25;
    let server = Server::start(config).expect("daemon starts");

    let mut idle = TcpStream::connect(server.local_addr()).expect("connects");
    idle.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("sets timeout");
    let start = Instant::now();
    let mut buf = [0u8; 16];
    // Say nothing: the daemon must hang up on us, not wedge the slot.
    match idle.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("daemon sent {n} unsolicited bytes to a silent peer"),
    }
    assert!(
        start.elapsed() < Duration::from_secs(20),
        "silent peer outlived the 0.25s connection deadline"
    );

    // A live client still works, and the timeout was counted.
    let mut client = Client::connect(server.local_addr()).expect("connects");
    let snapshot = client.metrics().expect("metrics");
    assert!(counter_total(&snapshot, "sfi_conn_timeouts_total") >= 1);
    drop(client);
    server.shutdown();
}

#[test]
fn a_mid_frame_cut_is_retried_and_the_keyed_submit_lands_exactly_once() {
    let server = Server::start(ServeConfig::fast_for_tests()).expect("daemon starts");
    let mut direct = Client::connect(server.local_addr()).expect("connects");
    let sta = direct.ping().expect("pong").sta_limit_mhz;
    let def = two_cell_def(sta);

    // The proxy forwards 40 client bytes, then severs the connection
    // mid-frame — once.  The retry reconnects and passes clean.
    let plan = FaultPlan {
        cut_after: Some(40),
        ..FaultPlan::default()
    };
    let proxy = ChaosProxy::start(server.local_addr(), plan).expect("proxy starts");
    let before = counter_total(
        &direct.metrics().expect("metrics"),
        "sfi_client_retries_total",
    );

    let mut retrying =
        RetryingClient::new(proxy.local_addr(), RetryPolicy::fast_for_tests()).expect("resolves");
    let ticket = retrying
        .submit(&def, Priority::Normal, Some("chaos"), "cut-1")
        .expect("submit survives the cut");
    assert!(proxy.cut_taken(), "the fault fired");
    let after = counter_total(
        &direct.metrics().expect("metrics"),
        "sfi_client_retries_total",
    );
    assert!(after > before, "the retry was counted");

    // Exactly one job landed: the direct resubmit with the same key
    // returns the same id, and the daemon saw one submission.
    let again = direct
        .submit_keyed(&def, Priority::Normal, Some("chaos"), Some("cut-1"))
        .expect("resubmit accepted");
    assert_eq!(again.job, ticket.job);
    assert_eq!(direct.ping().expect("pong").jobs, 1);

    // The streamed job completes through the (now clean) proxy.
    let status = retrying.wait(ticket.job).expect("job finishes");
    assert_eq!(status.state, JobState::Done);
    drop(retrying);
    drop(direct);
    drop(proxy);
    server.shutdown();
}

#[test]
fn a_corrupted_frame_gets_a_typed_error_and_the_daemon_survives() {
    let server = Server::start(ServeConfig::fast_for_tests()).expect("daemon starts");
    let mut direct = Client::connect(server.local_addr()).expect("connects");
    let sta = direct.ping().expect("pong").sta_limit_mhz;
    let def = two_cell_def(sta);

    // Flip a bit in the very first client byte: `{` becomes `[`, so the
    // submit frame is no longer a JSON object.
    let plan = FaultPlan {
        corrupt_at: Some(0),
        ..FaultPlan::default()
    };
    let proxy = ChaosProxy::start(server.local_addr(), plan).expect("proxy starts");
    let mut through = Client::connect(proxy.local_addr()).expect("connects");
    let err = through
        .submit(&def)
        .expect_err("corrupted frame is refused");
    assert_eq!(err.code(), Some(ErrorCode::BadRequest));
    assert!(proxy.corrupt_taken(), "the fault fired");

    // Same connection, next frame clean: the daemon kept serving.
    let ticket = through.submit(&def).expect("clean resubmit accepted");
    let status = through.wait(ticket.job).expect("job finishes");
    assert_eq!(status.state, JobState::Done);
    drop(through);
    drop(direct);
    drop(proxy);
    server.shutdown();
}

#[test]
fn permanent_rejections_are_not_retried() {
    let server = Server::start(ServeConfig::fast_for_tests()).expect("daemon starts");

    // A spec whose cell names a benchmark that does not exist: the
    // daemon answers bad_request, which the policy must not retry —
    // with a 500ms base delay, a single retry would blow the elapsed
    // bound.
    let mut bad = CampaignDef::new("chaos-bad", 1);
    bad.cells.push(CellDef {
        benchmark: 7,
        model: FaultModel::StatisticalDta,
        freq_mhz: 100.0,
        vdd: 0.7,
        noise_sigma_mv: 10.0,
        budget: BudgetDef::fixed(2),
    });
    let policy = RetryPolicy {
        max_attempts: 4,
        base_delay: Duration::from_millis(500),
        max_delay: Duration::from_millis(500),
        ..RetryPolicy::default()
    };
    let mut retrying = RetryingClient::new(server.local_addr(), policy).expect("resolves");
    let start = Instant::now();
    let err = retrying
        .submit(&bad, Priority::Normal, None, "bad-1")
        .expect_err("bad spec is refused");
    assert_eq!(err.code(), Some(ErrorCode::BadRequest));
    assert!(
        start.elapsed() < Duration::from_millis(400),
        "a permanent rejection must surface immediately, not back off"
    );
    drop(retrying);
    server.shutdown();
}

#[test]
fn a_torn_journal_tail_is_tolerated_and_the_prefix_survives() {
    let dir = temp_dir("torn_tail");
    let mut config = ServeConfig::fast_for_tests();
    config.state_dir = Some(dir.clone());

    // Run one campaign to completion, then stop the daemon cleanly.
    let server = Server::start(config.clone()).expect("daemon starts");
    let mut client = Client::connect(server.local_addr()).expect("connects");
    let sta = client.ping().expect("pong").sta_limit_mhz;
    let def = two_cell_def(sta);
    let ticket = client
        .submit_keyed(&def, Priority::Normal, Some("torn"), Some("torn-1"))
        .expect("accepted");
    let status = client.wait(ticket.job).expect("job finishes");
    assert_eq!(status.state, JobState::Done);
    drop(client);
    server.shutdown();

    // Tear the journal: a record header that promises more bytes than
    // the file holds, as a crash mid-append would leave behind.
    let path = dir.join("journal.log");
    let before = std::fs::metadata(&path).expect("journal exists").len();
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .expect("journal opens");
    file.write_all(&[64, 0, 0, 0, 0xDE, 0xAD, 0xBE, 0xEF, b'{'])
        .expect("torn tail written");
    drop(file);

    // Restart: the daemon recovers the intact prefix and keeps serving.
    let server = Server::start(config).expect("daemon restarts over the torn journal");
    let mut client = Client::connect(server.local_addr()).expect("connects");
    let status = client.status(ticket.job).expect("job survived");
    assert_eq!(status.state, JobState::Done);
    assert!(
        status.evicted,
        "result bytes are not journaled, so a recovered terminal job reports evicted"
    );
    let err = client
        .result(ticket.job)
        .expect_err("result was not retained");
    assert_eq!(err.code(), Some(ErrorCode::ResultEvicted));

    // The idempotency key was replayed too.
    let again = client
        .submit_keyed(&def, Priority::Normal, Some("torn"), Some("torn-1"))
        .expect("resubmit accepted");
    assert_eq!(again.job, ticket.job, "idempotency keys survive restarts");

    // Startup compaction rewrote the journal without the torn tail.
    let after = std::fs::metadata(&path)
        .expect("journal still exists")
        .len();
    assert!(
        after < before,
        "compaction must shrink the journal ({after} vs {before} bytes)"
    );
    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
