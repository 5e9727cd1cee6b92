//! Command-line client for the campaign daemon.
//!
//! One subcommand per protocol request, plus `demo` (submit a small
//! builtin campaign and stream its results — handy for smoke tests).

use sfi_core::json::Json;
use sfi_core::FaultModel;
use sfi_serve::asm_submit::{
    campaign_from_asm, findings_with_lines, is_verification_detail, AsmCellParams,
};
use sfi_serve::client::Client;
use sfi_serve::jobs::Priority;
use sfi_serve::protocol::PoffRequest;
use sfi_serve::wire::{BenchmarkDef, BudgetDef, CampaignDef, CellDef};
use std::process::exit;

const USAGE: &str = "\
usage: sfi-client [--addr HOST:PORT] COMMAND [args]

commands:
  ping                  print server info (STA limit, cache status, scheduler slots,
                        quotas, retained result bytes)
  submit FILE           submit a campaign definition (JSON, see docs/PROTOCOL.md) and
                        print the job id; a FILE ending in .s is assembled into a
                        one-cell 'program' campaign first (see docs/ASM.md), and a
                        verification rejection is mapped back to source lines
      [--priority low|normal|high]   scheduling class (default normal; high may preempt)
      [--client ID]                  client id the per-client quotas are accounted against
      [--key KEY]                    idempotency key: resubmitting the same (client, key)
                                     returns the original job instead of a duplicate
                        flags for .s submissions only:
      [--freq MHZ]                   cell clock (default 0.95 × the server's STA limit)
      [--vdd V]                      supply voltage (default 0.7)
      [--noise MV]                   voltage-noise sigma in mV (default 0)
      [--model b|b+|c]               fault model (default c, statistical DTA)
      [--trials N]                   Monte-Carlo trials of the cell (default 20)
      [--seed S]                     campaign + program seed (default 1)
      [--dmem N]                     data-memory words when FILE has no .dmem (default 4096)
      [--name NAME]                  campaign name (default: the file stem)
  demo                  submit a small builtin median campaign, stream it, print a summary
  status JOB            print one job-status line (state, priority, progress, preemptions)
  stream JOB            stream a job's cells as JSON lines to stdout
  result JOB            print a finished job's full result document
  cancel JOB            cancel a queued or running job
  metrics               print a snapshot of the daemon's metrics registry (engine,
                        scheduler and ISS counters, gauges and latency histograms)
  events                print recent structured events, oldest first, as JSON lines
      [--limit N]                    at most N events (default 100)
      [--job JOB]                    only events tagged with this job id
  trace                 print recent trace records (spans and utilization counters)
                        as Chrome trace-event JSON lines, sorted by timestamp
      [--limit N]                    at most N records (default 1000)
      [--job JOB]                    only records tagged with this job id
      [--chrome FILE]                write them to FILE as one Chrome trace-event array
                                     instead (load it in chrome://tracing or
                                     ui.perfetto.dev)
  poff KERNEL LO HI     bisect the point of first failure of a builtin kernel
                        (KERNEL: median | matmul8 | matmul16 | kmeans | dijkstra
                                 | fft | fir | crc32 | bitonic)
      [--vdd V] [--noise MV] [--resolution MHZ] [--trials N] [--seed S] [--model b|b+|c]
  drain                 stop the daemon gracefully: refuse new submits (typed 'draining'
                        error), let running jobs finish within the daemon's
                        --drain-timeout, journal queued jobs for a restart, then exit
  shutdown              stop the daemon immediately (running jobs are cancelled at the
                        next trial boundary; with --state-dir their cells are journaled)

default address: 127.0.0.1:7433
";

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("sfi-client: {message}");
    exit(1);
}

fn usage_fail(message: impl std::fmt::Display) -> ! {
    eprintln!("sfi-client: {message}");
    eprintln!("{USAGE}");
    exit(2);
}

fn parse_job(arg: Option<&String>) -> u64 {
    arg.and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage_fail("expected a numeric job id"))
}

/// The fault model a `--model` flag names (`b`, `b+` or `c`).
fn parse_model(name: &str) -> FaultModel {
    match name {
        "b" => FaultModel::StaPeriodViolation,
        "b+" => FaultModel::StaWithNoise,
        "c" => FaultModel::StatisticalDta,
        other => usage_fail(format!("unknown model '{other}'")),
    }
}

fn builtin_kernel(name: &str) -> BenchmarkDef {
    match name {
        "median" => BenchmarkDef::Median {
            values: 129,
            seed: 3,
        },
        "matmul8" => BenchmarkDef::MatMul {
            n: 16,
            element_bits: 8,
            seed: 3,
        },
        "matmul16" => BenchmarkDef::MatMul {
            n: 16,
            element_bits: 16,
            seed: 3,
        },
        "kmeans" => BenchmarkDef::KMeans {
            points: 8,
            clusters: 2,
            iterations: 12,
            seed: 3,
        },
        "dijkstra" => BenchmarkDef::Dijkstra { nodes: 10, seed: 3 },
        "fft" => BenchmarkDef::Fft { n: 64, seed: 3 },
        "fir" => BenchmarkDef::Fir {
            taps: 16,
            outputs: 64,
            seed: 3,
        },
        "crc32" => BenchmarkDef::Crc32 {
            words: 128,
            seed: 3,
        },
        "bitonic" => BenchmarkDef::Bitonic { n: 64, seed: 3 },
        other => usage_fail(format!(
            "unknown kernel '{other}' (supported: median, matmul8, matmul16, \
             kmeans, dijkstra, fft, fir, crc32, bitonic)"
        )),
    }
}

fn print_status(status: &sfi_serve::jobs::JobStatus) {
    println!(
        "job {} {} [{}, client {}] ({}/{} cells, {} trials{}{}{})",
        status.job,
        status.state.as_str(),
        status.priority.as_str(),
        status.client,
        status.completed_cells,
        status.total_cells,
        status.executed_trials,
        if status.preemptions > 0 {
            format!(", {} preemption(s)", status.preemptions)
        } else {
            String::new()
        },
        if status.evicted {
            ", result evicted"
        } else {
            ""
        },
        status
            .error
            .as_deref()
            .map(|e| format!(", error: {e}"))
            .unwrap_or_default()
    );
}

/// Pretty-prints a metrics snapshot document (`{"families": [...]}`): one
/// line per sample, histograms as count/sum plus their cumulative buckets.
fn print_metrics(snapshot: &Json) {
    let empty = Vec::new();
    let families = snapshot
        .get("families")
        .and_then(Json::as_arr)
        .unwrap_or(&empty);
    for family in families {
        let name = family.get("name").and_then(Json::as_str).unwrap_or("?");
        let kind = family.get("kind").and_then(Json::as_str).unwrap_or("?");
        let samples = family
            .get("samples")
            .and_then(Json::as_arr)
            .unwrap_or(&empty);
        for sample in samples {
            let labels = match sample.get("labels") {
                Some(Json::Obj(map)) if !map.is_empty() => {
                    let pairs: Vec<String> = map
                        .iter()
                        .map(|(k, v)| format!("{k}={}", v.as_str().unwrap_or("?")))
                        .collect();
                    format!("{{{}}}", pairs.join(","))
                }
                _ => String::new(),
            };
            match kind {
                "histogram" => {
                    let value = sample.get("value");
                    let count = value
                        .and_then(|v| v.get("count"))
                        .and_then(Json::as_u64)
                        .unwrap_or(0);
                    let sum = value
                        .and_then(|v| v.get("sum"))
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0);
                    println!("{name}{labels}  count {count}, sum {sum:.6}");
                    let buckets = value
                        .and_then(|v| v.get("buckets"))
                        .and_then(Json::as_arr)
                        .unwrap_or(&empty);
                    for bucket in buckets {
                        println!(
                            "  le {:>8}  {}",
                            bucket.get("le").and_then(Json::as_str).unwrap_or("?"),
                            bucket.get("count").and_then(Json::as_u64).unwrap_or(0),
                        );
                    }
                }
                _ => {
                    let value = match sample.get("value") {
                        Some(Json::Str(s)) => s.clone(),
                        Some(Json::Num(n)) => format!("{n}"),
                        _ => "?".into(),
                    };
                    println!("{name}{labels}  {value}");
                }
            }
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let mut addr = "127.0.0.1:7433".to_string();
    let mut rest = &argv[1..];
    if rest.first().map(String::as_str) == Some("--addr") {
        addr = rest
            .get(1)
            .cloned()
            .unwrap_or_else(|| usage_fail("--addr needs a value"));
        rest = &rest[2..];
    }
    let Some(command) = rest.first() else {
        usage_fail("no command given");
    };
    if command == "--help" || command == "-h" {
        println!("{USAGE}");
        return;
    }

    let mut client = Client::connect(&addr)
        .unwrap_or_else(|err| fail(format!("cannot connect to {addr}: {err}")));
    let outcome = run(&mut client, command, &rest[1..]);
    if let Err(err) = outcome {
        fail(err);
    }
}

fn run(
    client: &mut Client,
    command: &str,
    args: &[String],
) -> Result<(), sfi_serve::client::ClientError> {
    match command {
        "ping" => {
            let info = client.ping()?;
            println!(
                "protocol v{}, STA limit {:.1} MHz @ {} V, voltages {:?}, \
                 characterization {}, {} job(s) so far",
                info.v,
                info.sta_limit_mhz,
                info.nominal_vdd,
                info.voltages,
                if info.characterization_cache_hit {
                    "cache hit"
                } else {
                    "computed"
                },
                info.jobs
            );
            println!(
                "scheduler: {}/{} job slot(s) busy × {} thread(s), queued quota {}, \
                 running quota {}, retained {} result byte(s){}",
                info.running_jobs,
                info.max_concurrent_jobs,
                info.threads_per_job,
                match info.max_queued_per_client {
                    Some(n) => n.to_string(),
                    None => "unlimited".into(),
                },
                match info.max_running_per_client {
                    Some(n) => n.to_string(),
                    None => "unlimited".into(),
                },
                info.retained_result_bytes,
                match info.result_cap_bytes {
                    Some(n) => format!(" of {n} cap"),
                    None => " (no cap)".into(),
                },
            );
            println!(
                "observability: Prometheus listener {}, {} preemption(s), {} eviction(s)",
                if info.metrics_enabled { "on" } else { "off" },
                info.preemptions_total,
                info.evictions_total,
            );
            if info.draining {
                println!("state: DRAINING (new submits are refused)");
            }
        }
        "submit" => {
            let path = args
                .first()
                .unwrap_or_else(|| usage_fail("submit needs a FILE"));
            let is_asm = path.ends_with(".s");
            let mut priority = Priority::Normal;
            let mut client_id: Option<String> = None;
            let mut key: Option<String> = None;
            let mut params = AsmCellParams::default();
            let mut freq: Option<f64> = None;
            let mut name: Option<String> = None;
            let mut i = 1;
            while i < args.len() {
                let value = |i: &mut usize| -> String {
                    *i += 1;
                    args.get(*i)
                        .cloned()
                        .unwrap_or_else(|| usage_fail("flag needs a value"))
                };
                let asm_only = |flag: &str| {
                    if !is_asm {
                        usage_fail(format!("{flag} only applies to .s submissions"));
                    }
                };
                match args[i].as_str() {
                    "--priority" => {
                        let name = value(&mut i);
                        priority = Priority::parse(&name).unwrap_or_else(|| {
                            usage_fail(format!(
                                "unknown priority '{name}' (expected low, normal or high)"
                            ))
                        });
                    }
                    "--client" => client_id = Some(value(&mut i)),
                    "--key" => key = Some(value(&mut i)),
                    "--freq" => {
                        asm_only("--freq");
                        freq = Some(
                            value(&mut i)
                                .parse()
                                .unwrap_or_else(|_| usage_fail("--freq")),
                        );
                    }
                    "--vdd" => {
                        asm_only("--vdd");
                        params.vdd = value(&mut i)
                            .parse()
                            .unwrap_or_else(|_| usage_fail("--vdd"));
                    }
                    "--noise" => {
                        asm_only("--noise");
                        params.noise_sigma_mv = value(&mut i)
                            .parse()
                            .unwrap_or_else(|_| usage_fail("--noise"));
                    }
                    "--model" => {
                        asm_only("--model");
                        params.model = parse_model(&value(&mut i));
                    }
                    "--trials" => {
                        asm_only("--trials");
                        params.trials = value(&mut i)
                            .parse()
                            .unwrap_or_else(|_| usage_fail("--trials"));
                    }
                    "--seed" => {
                        asm_only("--seed");
                        params.seed = value(&mut i)
                            .parse()
                            .unwrap_or_else(|_| usage_fail("--seed"));
                    }
                    "--dmem" => {
                        asm_only("--dmem");
                        params.default_dmem_words = value(&mut i)
                            .parse::<usize>()
                            .ok()
                            .filter(|&n| n > 0)
                            .unwrap_or_else(|| usage_fail("--dmem"));
                    }
                    "--name" => {
                        asm_only("--name");
                        name = Some(value(&mut i));
                    }
                    other => usage_fail(format!("unknown flag '{other}'")),
                }
                i += 1;
            }
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|err| fail(format!("cannot read {path}: {err}")));
            let (def, assembly) = if is_asm {
                params.freq_mhz = match freq {
                    Some(freq) => freq,
                    // Default to a deterministic just-below-the-STA-limit
                    // clock so a plain submit runs fault-free.
                    None => client.ping()?.sta_limit_mhz * 0.95,
                };
                let name = name.unwrap_or_else(|| {
                    std::path::Path::new(path)
                        .file_stem()
                        .map(|stem| stem.to_string_lossy().into_owned())
                        .unwrap_or_else(|| "asm".into())
                });
                let (def, assembly) = campaign_from_asm(&name, path, &text, &params)
                    .unwrap_or_else(|err| {
                        eprintln!("{err}");
                        exit(2);
                    });
                (def, Some(assembly))
            } else {
                let doc = Json::parse(&text)
                    .unwrap_or_else(|err| fail(format!("{path} is not valid JSON: {err}")));
                let def = CampaignDef::from_json(&doc)
                    .unwrap_or_else(|err| fail(format!("{path}: {err}")));
                (def, None)
            };
            let submitted =
                client.submit_keyed(&def, priority, client_id.as_deref(), key.as_deref());
            // A verification rejection of an assembled submission is
            // reported with findings mapped back to source lines.
            if let (
                Some(assembly),
                Err(sfi_serve::client::ClientError::Server {
                    message,
                    detail: Some(detail),
                    ..
                }),
            ) = (&assembly, &submitted)
            {
                if is_verification_detail(detail) {
                    eprintln!("sfi-client: {message}");
                    for line in findings_with_lines(path, assembly, detail) {
                        eprintln!("{line}");
                    }
                    exit(1);
                }
            }
            let ticket = submitted?;
            println!(
                "job {} submitted ({} cells, {} priority)",
                ticket.job,
                ticket.total_cells,
                ticket.priority.as_str()
            );
        }
        "demo" => {
            let info = client.ping()?;
            let mut def = CampaignDef::new("demo", 7);
            let median = def.add_benchmark(BenchmarkDef::Median {
                values: 21,
                seed: 3,
            });
            for overscale in [0.95, 1.15] {
                def.cells.push(CellDef {
                    benchmark: median,
                    model: FaultModel::StatisticalDta,
                    freq_mhz: info.sta_limit_mhz * overscale,
                    vdd: info.nominal_vdd,
                    noise_sigma_mv: 10.0,
                    budget: BudgetDef::fixed(5),
                });
            }
            let ticket = client.submit(&def)?;
            println!(
                "job {} submitted ({} cells), streaming…",
                ticket.job, ticket.total_cells
            );
            let state = client.stream(ticket.job, |cell| {
                println!("  cell {}", cell);
            })?;
            println!("job {} {state}", ticket.job);
        }
        "status" => {
            let status = client.status(parse_job(args.first()))?;
            print_status(&status);
        }
        "stream" => {
            let job = parse_job(args.first());
            let state = client.stream(job, |cell| println!("{cell}"))?;
            println!("job {job} {state}");
        }
        "result" => {
            let doc = client.result(parse_job(args.first()))?;
            println!("{doc}");
        }
        "cancel" => {
            let job = parse_job(args.first());
            client.cancel(job)?;
            println!("job {job} cancelled");
        }
        "metrics" => {
            let snapshot = client.metrics()?;
            print_metrics(&snapshot);
        }
        "events" => {
            let mut limit = None;
            let mut job = None;
            let mut i = 0;
            while i < args.len() {
                let value = |i: &mut usize| -> String {
                    *i += 1;
                    args.get(*i)
                        .cloned()
                        .unwrap_or_else(|| usage_fail("flag needs a value"))
                };
                match args[i].as_str() {
                    "--limit" => {
                        limit = Some(
                            value(&mut i)
                                .parse()
                                .unwrap_or_else(|_| usage_fail("--limit")),
                        )
                    }
                    "--job" => {
                        job = Some(
                            value(&mut i)
                                .parse()
                                .unwrap_or_else(|_| usage_fail("--job")),
                        )
                    }
                    other => usage_fail(format!("unknown flag '{other}'")),
                }
                i += 1;
            }
            let (events, dropped) = client.events(limit, job)?;
            for event in events.as_arr().unwrap_or_default() {
                println!("{event}");
            }
            if dropped > 0 {
                eprintln!("({dropped} older event(s) dropped by the ring buffer)");
            }
        }
        "trace" => {
            let mut limit = None;
            let mut job = None;
            let mut chrome: Option<String> = None;
            let mut i = 0;
            while i < args.len() {
                let value = |i: &mut usize| -> String {
                    *i += 1;
                    args.get(*i)
                        .cloned()
                        .unwrap_or_else(|| usage_fail("flag needs a value"))
                };
                match args[i].as_str() {
                    "--limit" => {
                        limit = Some(
                            value(&mut i)
                                .parse()
                                .unwrap_or_else(|_| usage_fail("--limit")),
                        )
                    }
                    "--job" => {
                        job = Some(
                            value(&mut i)
                                .parse()
                                .unwrap_or_else(|_| usage_fail("--job")),
                        )
                    }
                    "--chrome" => chrome = Some(value(&mut i)),
                    other => usage_fail(format!("unknown flag '{other}'")),
                }
                i += 1;
            }
            let (spans, dropped) = client.trace(limit, job)?;
            let records = spans.as_arr().unwrap_or_default();
            match chrome {
                Some(path) => {
                    std::fs::write(&path, format!("{spans}\n"))
                        .unwrap_or_else(|err| fail(format!("cannot write {path}: {err}")));
                    println!(
                        "wrote {} trace event(s) to {path} \
                         (load in chrome://tracing or ui.perfetto.dev)",
                        records.len()
                    );
                }
                None => {
                    for record in records {
                        println!("{record}");
                    }
                }
            }
            if dropped > 0 {
                eprintln!("({dropped} older record(s) dropped by the trace store)");
            }
        }
        "poff" => {
            if args.len() < 3 {
                usage_fail("poff needs KERNEL LO HI");
            }
            let benchmark = builtin_kernel(&args[0]);
            let lo: f64 = args[1]
                .parse()
                .unwrap_or_else(|_| usage_fail("LO must be MHz"));
            let hi: f64 = args[2]
                .parse()
                .unwrap_or_else(|_| usage_fail("HI must be MHz"));
            let mut request = PoffRequest {
                benchmark,
                model: FaultModel::StatisticalDta,
                vdd: 0.7,
                noise_sigma_mv: 0.0,
                lo_mhz: lo,
                hi_mhz: hi,
                resolution_mhz: (hi - lo) / 64.0,
                trials: 20,
                seed: 9,
            };
            let mut i = 3;
            while i < args.len() {
                let value = |i: &mut usize| -> String {
                    *i += 1;
                    args.get(*i)
                        .cloned()
                        .unwrap_or_else(|| usage_fail("flag needs a value"))
                };
                match args[i].as_str() {
                    "--vdd" => {
                        request.vdd = value(&mut i)
                            .parse()
                            .unwrap_or_else(|_| usage_fail("--vdd"))
                    }
                    "--noise" => {
                        request.noise_sigma_mv = value(&mut i)
                            .parse()
                            .unwrap_or_else(|_| usage_fail("--noise"))
                    }
                    "--resolution" => {
                        request.resolution_mhz = value(&mut i)
                            .parse()
                            .unwrap_or_else(|_| usage_fail("--resolution"))
                    }
                    "--trials" => {
                        request.trials = value(&mut i)
                            .parse()
                            .unwrap_or_else(|_| usage_fail("--trials"))
                    }
                    "--seed" => {
                        request.seed = value(&mut i)
                            .parse()
                            .unwrap_or_else(|_| usage_fail("--seed"))
                    }
                    "--model" => request.model = parse_model(&value(&mut i)),
                    other => usage_fail(format!("unknown flag '{other}'")),
                }
                i += 1;
            }
            let reply = client.poff(&request)?;
            match reply.poff_mhz {
                Some(freq) => println!(
                    "PoFF: {freq:.1} MHz ({} cells evaluated)",
                    reply.cells_evaluated
                ),
                None => println!(
                    "no failure up to {:.1} MHz ({} cells evaluated)",
                    request.hi_mhz, reply.cells_evaluated
                ),
            }
            for point in &reply.evaluated {
                println!(
                    "  {:>8.1} MHz  correct {:.3}",
                    point.freq_mhz, point.correct_fraction
                );
            }
        }
        "drain" => {
            let running = client.drain()?;
            println!("drain started ({running} job(s) still running)");
        }
        "shutdown" => {
            client.shutdown()?;
            println!("daemon shut down");
        }
        other => usage_fail(format!("unknown command '{other}'")),
    }
    Ok(())
}
