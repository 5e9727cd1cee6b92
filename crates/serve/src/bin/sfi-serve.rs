//! The campaign daemon binary.
//!
//! Builds (or cache-restores) the characterized case study, then serves
//! campaign queries over TCP until a client sends `shutdown`.

use sfi_core::study::CaseStudyConfig;
use sfi_serve::server::{ServeConfig, Server};
use std::path::PathBuf;
use std::process::exit;

const USAGE: &str = "\
usage: sfi-serve [options]

options:
  --addr HOST:PORT           listen address (default 127.0.0.1:7433; port 0 = ephemeral)
  --fast                     serve the scaled-down 8-bit case study instead of the paper's
                             32-bit one
  --threads N                global engine worker-thread budget shared by all running jobs
                             (0 or omitted = all CPUs)
  --max-concurrent-jobs N    jobs the scheduler runs at once, each on an equal share of the
                             thread budget (default 1)
  --max-queued-per-client N  per-client queued-jobs quota; excess submits are rejected with
                             a quota_exceeded error (0 or omitted = unlimited)
  --max-running-per-client N per-client running-jobs quota; excess jobs wait in the queue
                             (0 or omitted = unlimited)
  --result-cap-bytes N       byte cap on retained result JSON; least-recently-fetched
                             results are evicted above it and report result_evicted
                             (0 or omitted = retain everything until shutdown)
  --cache-dir DIR            persistent characterization cache (restarts skip the DTA
                             rebuild)
  --state-dir DIR            durable job journal: every transition and completed cell is
                             fsync'd here, and a restarted daemon replays it — queued jobs
                             come back queued, interrupted jobs resume from their completed
                             cells with bit-identical results, and a job submitted under
                             another study fails instead of resuming
  --drain-timeout S          seconds a 'drain' waits for running jobs before stopping
                             them and exiting anyway (default 30)
  --conn-timeout S           per-connection read/write deadline in seconds; silent peers
                             are disconnected past it (default 300; 0 = no deadline)
  --max-connections N        cap on concurrently served connections; excess connections
                             get one quota_exceeded error frame and are closed
                             (0 or omitted = unlimited)
  --drain-on-stdin           begin a drain when stdin reaches EOF — lets a supervisor
                             trigger graceful shutdown by closing the daemon's stdin
  --metrics-addr HOST:PORT   serve the Prometheus text exposition on this address (the
                             'metrics' wire frame works without it; port 0 = ephemeral)
  --event-buffer N           capacity of the structured-event ring buffer (default 1024;
                             overflow drops the oldest events and counts them)
  --help                     print this help

Scheduling: submitted jobs carry a priority class (low/normal/high); dispatch is strict
priority order, FIFO within a class, and a queued job may cooperatively preempt a running
lower-priority one (the preempted job resumes bit-identically from its completed cells).
The wire protocol is documented in docs/PROTOCOL.md.
";

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("sfi-serve: {message}");
    eprintln!("{USAGE}");
    exit(2);
}

/// Parses the next argument as a finite non-negative float (timeouts in
/// seconds).
fn nonnegative(argv: &[String], i: &mut usize, flag: &str) -> f64 {
    *i += 1;
    argv.get(*i)
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|v| v.is_finite() && *v >= 0.0)
        .unwrap_or_else(|| fail(format!("{flag} needs a non-negative number")))
}

fn main() {
    let mut config = ServeConfig::default();
    let mut drain_on_stdin = false;
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    let value = |i: &mut usize, flag: &str| -> String {
        *i += 1;
        argv.get(*i)
            .cloned()
            .unwrap_or_else(|| fail(format!("{flag} needs a value")))
    };
    let unsigned = |i: &mut usize, flag: &str| -> usize {
        value(i, flag)
            .parse()
            .unwrap_or_else(|_| fail(format!("{flag} needs an unsigned integer")))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--addr" => config.addr = value(&mut i, "--addr"),
            "--fast" => {
                config.study = CaseStudyConfig {
                    voltages: vec![0.7, 0.8],
                    ..CaseStudyConfig::fast_for_tests()
                }
            }
            "--threads" => {
                // 0 means "auto" (all CPUs), like the figure binaries.
                let n = unsigned(&mut i, "--threads");
                config.threads = (n > 0).then_some(n);
            }
            "--max-concurrent-jobs" => {
                let n = unsigned(&mut i, "--max-concurrent-jobs");
                if n == 0 {
                    fail("--max-concurrent-jobs must be at least 1");
                }
                config.max_concurrent_jobs = n;
            }
            "--max-queued-per-client" => {
                let n = unsigned(&mut i, "--max-queued-per-client");
                config.max_queued_per_client = (n > 0).then_some(n);
            }
            "--max-running-per-client" => {
                let n = unsigned(&mut i, "--max-running-per-client");
                config.max_running_per_client = (n > 0).then_some(n);
            }
            "--result-cap-bytes" => {
                let n = unsigned(&mut i, "--result-cap-bytes");
                config.result_cap_bytes = (n > 0).then_some(n);
            }
            "--cache-dir" => config.cache_dir = Some(PathBuf::from(value(&mut i, "--cache-dir"))),
            "--state-dir" => config.state_dir = Some(PathBuf::from(value(&mut i, "--state-dir"))),
            "--drain-timeout" => {
                config.drain_timeout_seconds = nonnegative(&argv, &mut i, "--drain-timeout")
            }
            "--conn-timeout" => {
                config.conn_timeout_seconds = nonnegative(&argv, &mut i, "--conn-timeout")
            }
            "--max-connections" => {
                let n = unsigned(&mut i, "--max-connections");
                config.max_connections = (n > 0).then_some(n);
            }
            "--drain-on-stdin" => drain_on_stdin = true,
            "--metrics-addr" => config.metrics_addr = Some(value(&mut i, "--metrics-addr")),
            "--event-buffer" => {
                let n = unsigned(&mut i, "--event-buffer");
                if n == 0 {
                    fail("--event-buffer must be at least 1");
                }
                config.event_buffer = Some(n);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => fail(format!("unknown flag '{other}'")),
        }
        i += 1;
    }

    match Server::start(config) {
        Ok(server) => {
            if drain_on_stdin {
                // The workspace is unsafe-free, so there is no SIGTERM
                // handler; supervisors that want a graceful stop keep the
                // daemon's stdin open and close it to trigger a drain
                // (delivered through the daemon's own wire protocol).
                let addr = server.local_addr();
                std::thread::spawn(move || {
                    let mut sink = Vec::new();
                    let _ = std::io::Read::read_to_end(&mut std::io::stdin(), &mut sink);
                    if let Ok(mut client) = sfi_serve::client::Client::connect(addr) {
                        let _ = client.drain();
                    }
                });
            }
            server.join()
        }
        Err(err) => {
            eprintln!("sfi-serve: failed to start: {err}");
            exit(1);
        }
    }
}
