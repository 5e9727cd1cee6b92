//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload near_limit|overscaled|served --seed N --seconds S --trace 0|1
//! ```
//!
//! One run sets the workload up (timed several times), measures for
//! `--seconds`, checks every output against the real path and the recorded
//! digest, and prints each metric by name with its unit, then one JSON
//! line.  `--trace 0` prints the end-to-end metrics, `--trace 1` the
//! per-layer metrics and writes a Chrome trace to `perfbench/out/`.  See
//! `perfbench/README.md`.

mod calib;
mod phases;
mod replay;
mod stats;
mod trace;
mod workload;

use calib::Calibration;
use phases::{PoffKey, Sample, Until};
use replay::Counts;
use sfi_campaign::{CampaignEngine, CampaignResult, CampaignSpec};
use sfi_core::study::{CaseStudy, CaseStudyConfig};
use sfi_serve::server::{ServeConfig, Server};
use stats::{median, Tally};
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Recorder;
use workload::{Kind, Workload};

/// The seed runs use when none is given.
const DEFAULT_SEED: u64 = 1;
/// The seed kept back to confirm a later performance claim.
const HELD_OUT_SEED: u64 = 90_210;
/// The percentile the `_tail_s` latencies report; every run collects at
/// least `stats::samples_for_tail(TAIL_PERCENTILE)` (100) samples of each.
const TAIL_PERCENTILE: f64 = 90.0;
/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Recorded output digests: `workload <TAB> seed <TAB> digest` per line.
const DIGESTS: &str = include_str!("../digests.tsv");

#[derive(Debug, Clone)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    digest_only: bool,
}

const USAGE: &str = "usage: perfbench --workload near_limit|overscaled|served [--seed N] \
[--seconds S] [--trace 0|1] [--smoke] [--digest-only]";

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            kind: Kind::NearLimit,
            seed: DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
            smoke: false,
            digest_only: false,
        };
        let mut kind = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    kind =
                        Some(Kind::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
                }
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(args.seconds.is_finite() && args.seconds > 0.0) {
                        return Err("--seconds must be positive".into());
                    }
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, got {other}")),
                    }
                }
                "--smoke" => args.smoke = true,
                "--digest-only" => args.digest_only = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        args.kind = kind.ok_or("--workload is required")?;
        Ok(args)
    }
}

/// The loopback daemon a run talks to, with its journal directory.
struct Daemon {
    server: Server,
    state_dir: PathBuf,
}

impl Daemon {
    fn start(smoke: bool, tag: usize) -> std::io::Result<Daemon> {
        let state_dir = out_dir().join(format!("state-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&state_dir);
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            study: study_config(smoke),
            state_dir: Some(state_dir.clone()),
            quiet: true,
            ..ServeConfig::default()
        })?;
        Ok(Daemon { server, state_dir })
    }

    fn stop(self) {
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.state_dir);
    }
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn study_config(smoke: bool) -> CaseStudyConfig {
    if smoke {
        CaseStudyConfig::fast_for_tests()
    } else {
        CaseStudyConfig::paper()
    }
}

/// Set-up times of one run, in seconds.
struct SetupTimes {
    /// At nominal machine speed.
    nominal: Vec<f64>,
    /// As measured.
    raw: Vec<f64>,
}

/// Times set-ups in the process's CPU time, after a calibration slice on
/// the same clock before each: the set-ups run while nothing else in the
/// process does, and their CPU time leaves out time the machine gave to
/// others.
struct SetupTimer {
    clock: calib::CpuClock,
    cal: Calibration,
    samples: Vec<Sample>,
}

impl SetupTimer {
    fn new() -> Self {
        SetupTimer {
            clock: calib::CpuClock::process(),
            cal: Calibration::default(),
            samples: Vec::new(),
        }
    }

    fn time<T>(&mut self, set_up: impl FnOnce() -> T) -> T {
        self.cal.slice_here(&self.clock);
        let at = Instant::now();
        let t0 = self.clock.seconds();
        let out = set_up();
        self.samples.push((at, self.clock.seconds() - t0));
        out
    }

    fn finish(mut self) -> SetupTimes {
        self.cal.slice_here(&self.clock);
        SetupTimes {
            nominal: nominal_s(&self.cal, &self.samples),
            raw: raw(&self.samples),
        }
    }
}

/// Times `SETUP_REPEATS` cold set-ups: `CaseStudy::build` in-process, or
/// `Server::start` for the served workload (whose last daemon stays up).
fn setup(args: &Args) -> (SetupTimes, Option<Daemon>) {
    let repeats = if args.smoke { 1 } else { SETUP_REPEATS };
    let mut timer = SetupTimer::new();
    let mut daemon = None;
    for tag in 0..repeats {
        if args.kind == Kind::Served {
            let started = timer
                .time(|| Daemon::start(args.smoke, tag))
                .expect("the loopback daemon starts");
            if let Some(previous) = daemon.replace(started) {
                Daemon::stop(previous);
            }
        } else {
            timer.time(|| std::hint::black_box(CaseStudy::build(study_config(args.smoke))));
        }
    }
    (timer.finish(), daemon)
}

/// FNV-1a over the simulated statistics: per cell the finished and correct
/// counts, simulated cycles, faults injected and bits flipped, every
/// trial's result bits, and every PoFF answer.
fn digest(pass: &replay::Pass, poffs: &[PoffKey]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut put = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    };
    for (cell, counts) in pass.cells.iter().zip(&pass.cell_counts) {
        for v in [
            counts.finished,
            counts.correct,
            counts.sim_cycles,
            counts.faults,
            counts.bits,
        ] {
            put(v);
        }
        for t in cell {
            put(u64::from(t.finished) | u64::from(t.correct) << 1);
            put(t.output_error.to_bits());
            put(t.fi_rate_per_kcycle.to_bits());
            put(t.cycles);
        }
    }
    for key in poffs {
        put(key.len() as u64);
        key.iter().for_each(|&v| put(v));
    }
    h
}

fn recorded_digest(kind: Kind, seed: u64) -> Option<u64> {
    DIGESTS.lines().find_map(|line| {
        let mut fields = line.split('\t');
        let (w, s, d) = (fields.next()?, fields.next()?, fields.next()?);
        (w == kind.name() && s.parse() == Ok(seed))
            .then(|| u64::from_str_radix(d.trim(), 16).ok())
            .flatten()
    })
}

/// A printed metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

/// The inputs every run prepares before measuring: the study, the
/// workload, its spec, the reference campaign run and PoFF answers.
struct Prepared {
    study: CaseStudy,
    workload: Workload,
    spec: CampaignSpec,
    reference: CampaignResult,
    reference_counts: Counts,
    poff_refs: Vec<PoffKey>,
    poff_cells: u64,
}

fn prepare(args: &Args) -> Prepared {
    let study = CaseStudy::build(study_config(args.smoke));
    let sta = study.sta_limit_mhz(workload::VDD);
    let workload = workload::build(args.kind, args.seed, sta, args.smoke);
    let spec = workload
        .job
        .instantiate()
        .expect("workload definitions are valid");
    let (reference, reference_counts) = phases::counted_run(&study, &spec);
    let engine = CampaignEngine::new();
    let outcomes: Vec<_> = workload
        .poffs
        .iter()
        .map(|q| phases::poff_in_process(&engine, &study, q))
        .collect();
    let poff_cells = outcomes.iter().map(|o| o.cells_evaluated as u64).sum();
    let poff_refs = outcomes.iter().map(phases::poff_key).collect();
    Prepared {
        study,
        workload,
        spec,
        reference,
        reference_counts,
        poff_refs,
        poff_cells,
    }
}

/// Checks the replayed trials and their exact counts against the real
/// path, and the digest against the recorded one.  Returns the digest.
fn check_outputs(
    args: &Args,
    p: &Prepared,
    pass: &replay::Pass,
    tally: &mut Tally,
    lines: &mut Vec<String>,
) -> u64 {
    let same = pass.cells.len() == p.reference.cells.len()
        && pass
            .cells
            .iter()
            .zip(&p.reference.cells)
            .all(|(a, b)| replay::same_trials(a, &b.trials));
    tally.record(same);
    lines.push(format!(
        "check replay == TrialContext path: {}",
        verdict(same)
    ));
    let r = &p.reference_counts;
    let t = &pass.totals;
    let counts_equal = (
        t.trials,
        t.finished,
        t.correct,
        t.watchdog,
        t.sim_cycles,
        t.faults,
        t.golden_runs,
    ) == (
        r.trials,
        r.finished,
        r.correct,
        r.watchdog,
        r.sim_cycles,
        r.faults,
        r.golden_runs,
    );
    tally.record(counts_equal);
    lines.push(format!(
        "check exact counts, replay vs CampaignEngine::run counters: {}",
        verdict(counts_equal)
    ));
    let d = digest(pass, &p.poff_refs);
    if args.smoke {
        lines.push(format!("digest {d:016x} (smoke study: not checked)"));
    } else {
        match recorded_digest(args.kind, args.seed) {
            Some(want) => {
                tally.record(want == d);
                lines.push(format!(
                    "digest {d:016x} recorded {want:016x}: {}",
                    verdict(want == d)
                ));
            }
            None => lines.push(format!(
                "digest {d:016x} (seed {} not recorded; cross-path checks only)",
                args.seed
            )),
        }
    }
    d
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "ok"
    } else {
        "MISMATCH"
    }
}

/// Durations at nominal machine speed.
fn nominal_s(cal: &Calibration, samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|&(at, v)| cal.seconds(at, v)).collect()
}

/// Rates at nominal machine speed.
fn nominal_rates(cal: &Calibration, samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|&(at, v)| cal.rate(at, v)).collect()
}

fn raw(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|&(_, v)| v).collect()
}

fn median_or_nan(values: &[f64]) -> f64 {
    median(values).unwrap_or(f64::NAN)
}

/// The fixed-percentile tail of `samples`, and whether enough samples lie
/// beyond it.
fn tail_metric(
    name: &'static str,
    cal: &Calibration,
    samples: &[Sample],
    percentile: f64,
) -> (Metric, bool) {
    let values = nominal_s(cal, samples);
    let raw_tail = stats::tail(&raw(samples), percentile).map_or(f64::NAN, |t| t.value);
    match stats::tail(&values, percentile) {
        Some(t) => (
            Metric {
                name,
                value: t.value,
                unit: "s",
                note: format!(
                    "p{} of n={} ({} beyond); raw {raw_tail:.6}",
                    t.percentile, t.samples, t.beyond
                ),
            },
            true,
        ),
        None => (
            Metric {
                name,
                value: median_or_nan(&values),
                unit: "s",
                note: format!(
                    "p{percentile} needs n={}, got {}: median shown",
                    stats::samples_for_tail(percentile),
                    samples.len()
                ),
            },
            false,
        ),
    }
}

fn p50_metric(name: &'static str, cal: &Calibration, samples: &[Sample]) -> Metric {
    Metric {
        name,
        value: median_or_nan(&nominal_s(cal, samples)),
        unit: "s",
        note: format!(
            "n={}; raw {:.6}",
            samples.len(),
            median_or_nan(&raw(samples))
        ),
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The untraced run: end-to-end metrics.
fn run_untraced(
    args: &Args,
    lines: &mut Vec<String>,
    tally: &mut Tally,
    cal: &mut Calibration,
) -> Vec<Metric> {
    let (setup_times, daemon) = setup(args);
    let p = prepare(args);
    let seconds = args.seconds;
    let percentile = TAIL_PERCENTILE;
    let min = if args.smoke {
        1
    } else {
        stats::samples_for_tail(percentile)
    };
    let grace = 2.0 * seconds;
    let loops = match &daemon {
        Some(d) => {
            let doc = p.reference.to_json(&p.spec).to_string();
            phases::served_sliced(
                d.server.local_addr(),
                &p.workload,
                &doc,
                &p.poff_refs,
                Until::new(0.7 * seconds, min, grace),
                cal,
                None,
                None,
            )
        }
        None => phases::in_process_loop(
            &p.study,
            &p.workload,
            &p.spec,
            &p.reference,
            &p.poff_refs,
            Until::new(0.6 * seconds, min, grace),
            cal,
        ),
    };
    tally.merge(loops.tally);
    let cells_until = Until::new((seconds - loops.wall_s).max(0.2 * seconds), 3, seconds);
    let cells = phases::cell_passes(&p.study, &p.spec, &p.reference, cells_until);
    tally.merge(cells.tally);
    let daemon_used = daemon.is_some();
    if let Some(d) = daemon {
        d.stop();
    }
    // Contention from outside only slows a pass down, and the calibration
    // makes up for part of it, so each cell takes its faster passes: the
    // upper quartile of its rates.
    let upper_quartile = |r: &Vec<f64>| stats::quantile(r, 0.75);
    let cell_rates: Vec<f64> = cells.rates.iter().filter_map(upper_quartile).collect();
    let raw_cell_rates: Vec<f64> = cells.raw_rates.iter().filter_map(upper_quartile).collect();
    // A window spans one round of PoFF queries: in-process one query runs
    // per job; over the wire the query loop runs alongside the job loop.
    let jobs_per_window = if daemon_used {
        4
    } else {
        p.workload.poffs.len()
    };
    let rates = loops.window_rates(jobs_per_window);
    let pass = replay::replay_pass(&p.study, &p.spec, None);
    check_outputs(args, &p, &pass, tally, lines);
    lines.push(format!(
        "jobs={} poff_queries={} cell_passes={} trials={} loop_wall_s={:.3}",
        loops.job_s.len(),
        loops.poff_s.len(),
        cells.pass_s.len(),
        loops.trials(),
        loops.wall_s
    ));
    // Over the wire a job waits for one journal fsync per cell, and those
    // waits set most of its latency: they do not follow CPU speed, so the
    // job latencies stay in wall time (an empty calibration has factor 1).
    let wall = Calibration::default();
    let job_cal = if daemon_used { &wall } else { &*cal };
    let (job_tail, ok1) = tail_metric("job_latency_tail_s", job_cal, &loops.job_s, percentile);
    let (first_tail, ok2) = tail_metric(
        "first_cell_latency_tail_s",
        cal,
        &loops.first_cell_s,
        percentile,
    );
    let (poff_tail, ok3) = tail_metric("poff_latency_tail_s", cal, &loops.poff_s, percentile);
    if !args.smoke {
        tally.record(ok1 && ok2 && ok3);
    }
    vec![
        Metric {
            note: format!(
                "median of {} set-ups; raw {:.6}",
                setup_times.raw.len(),
                median_or_nan(&setup_times.raw)
            ),
            ..metric("setup_s", median_or_nan(&setup_times.nominal), "s")
        },
        Metric {
            note: format!(
                "median of {} windows of {jobs_per_window} jobs; raw {:.3}",
                rates.len(),
                median_or_nan(&raw(&rates))
            ),
            ..metric(
                "trials_per_s",
                median_or_nan(&nominal_rates(cal, &rates)),
                "1/s",
            )
        },
        Metric {
            note: format!(
                "{} cells, upper quartile of {} passes each, timed in thread {} time; raw {:.3}",
                cell_rates.len(),
                cells.pass_s.len(),
                if calib::CpuClock::thread().is_cpu() {
                    "CPU"
                } else {
                    "wall"
                },
                stats::geomean(&raw_cell_rates).unwrap_or(f64::NAN)
            ),
            ..metric(
                "cell_trials_per_s_geomean",
                stats::geomean(&cell_rates).unwrap_or(f64::NAN),
                "1/s",
            )
        },
        p50_metric("job_latency_p50_s", job_cal, &loops.job_s),
        job_tail,
        p50_metric("first_cell_latency_p50_s", cal, &loops.first_cell_s),
        first_tail,
        p50_metric("poff_latency_p50_s", cal, &loops.poff_s),
        poff_tail,
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

/// The traced run: per-layer metrics, the Chrome trace and the tracing
/// overhead.
fn run_traced(
    args: &Args,
    lines: &mut Vec<String>,
    tally: &mut Tally,
    cal: &mut Calibration,
) -> Vec<Metric> {
    let origin = Instant::now();
    let mut rec = Recorder::new(origin, 1, 0);
    rec.begin("workload", None);
    rec.begin("setup", None);
    let (setup_times, daemon) = setup(args);
    rec.end();
    let p = prepare(args);
    let s = args.seconds;

    // The replayed trials, one span per layer call.
    let replay_start = Instant::now();
    let replays =
        phases::replay_passes(&p.study, &p.spec, Until::new(0.35 * s, 1, s), &mut rec, cal);
    // Per-pass layer totals are scaled by the machine speed mid-phase.
    let replay_factor = cal.factor_at(replay_start + replay_start.elapsed() / 2);
    tally.record(replays.repeatable);
    check_outputs(args, &p, &replays.first, tally, lines);

    // The same trials through TrialContext::run_trial, untraced and, like
    // the replay, on one thread: the baseline of the tracing overhead.
    rec.begin("cells.untraced", None);
    let cells = phases::cell_passes(&p.study, &p.spec, &p.reference, Until::new(0.15 * s, 1, s));
    rec.end();
    tally.merge(cells.tally);

    rec.begin("campaign.runs", None);
    let runs = phases::campaign_runs(
        &p.study,
        &p.spec,
        &p.reference,
        Until::new(0.15 * s, 1, s),
        &mut rec,
        cal,
    );
    rec.end();
    tally.merge(runs.tally);

    // The serve layer: the served workload's own daemon, or for the
    // in-process workloads one daemon started here, so that every layer
    // metric is defined on every workload.
    rec.begin("serve", None);
    let (daemon, start_s) = match daemon {
        Some(d) => (d, setup_times),
        None => {
            let mut timer = SetupTimer::new();
            let d = timer
                .time(|| Daemon::start(args.smoke, SETUP_REPEATS))
                .expect("the loopback daemon starts");
            (d, timer.finish())
        }
    };
    let doc = p.reference.to_json(&p.spec).to_string();
    let appends_before = sfi_obs::metrics().journal_appends.get();
    let root = rec.begin("serve.loops", None);
    let mut job_rec = Recorder::new(origin, 2, root);
    let mut poff_rec = Recorder::new(origin, 3, root);
    let loops = phases::served_sliced(
        daemon.server.local_addr(),
        &p.workload,
        &doc,
        &p.poff_refs,
        Until::new(0.35 * s, 3, s),
        cal,
        Some(&mut job_rec),
        Some(&mut poff_rec),
    );
    rec.end();
    // Shutting the daemon down joins its runner threads, so every journal
    // append of the loop has happened when the counter is read.
    daemon.stop();
    rec.end();
    let appends = sfi_obs::metrics().journal_appends.get() - appends_before;
    let submitted = loops.job_s.len().max(1) as u64;
    let appends_divide = appends.is_multiple_of(submitted);
    tally.record(appends_divide);
    tally.merge(loops.tally);
    rec.absorb(job_rec);
    rec.absorb(poff_rec);
    rec.end();

    let passes = replays.passes as f64 / replay_factor;
    let c = &replays.first.totals;
    let per_pass = |name: &str| rec.totals(name).total_s / passes;
    // The interpreter's time is the mask replay's; the fault model's is
    // what the real run took beyond it.
    let cpu_self_s = replays.masked_run_s / passes;
    let fault_self_s = (replays.run_s - replays.masked_run_s) / passes;
    let untraced_s = median_or_nan(&cells.pass_s);
    let traced_s = median_or_nan(&nominal_s(cal, &replays.pass_trial_s));
    let overhead = traced_s / untraced_s - 1.0;
    lines.push(format!(
        "tracing overhead: replayed trials {traced_s:.6} s/pass traced vs {untraced_s:.6} s/pass \
         untraced through TrialContext::run_trial ({:+.1}%)",
        100.0 * overhead
    ));
    lines.push(format!(
        "replay passes={} cell passes={} campaign runs={} served jobs={} poff queries={} spans dropped from trace file beyond {}",
        replays.passes,
        cells.pass_s.len(),
        runs.run_s.len(),
        loops.job_s.len(),
        loops.poff_s.len(),
        trace::MAX_STORED_SPANS
    ));
    let trace_path = out_dir().join(format!("trace-{}-{}.json", args.kind.name(), args.seed));
    let written = std::fs::create_dir_all(out_dir()).and_then(|()| {
        std::fs::write(
            &trace_path,
            rec.chrome_trace(&[
                ("workload", args.kind.name().to_string()),
                ("seed", args.seed.to_string()),
            ]),
        )
    });
    tally.record(written.is_ok());
    lines.push(format!(
        "chrome trace: {} ({})",
        trace_path.display(),
        match written {
            Ok(()) => "open it in chrome://tracing or ui.perfetto.dev".to_string(),
            Err(e) => format!("not written: {e}"),
        }
    ));

    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let p50 = |samples: &[Sample]| median_or_nan(&nominal_s(cal, samples));
    let job_p50 = p50(&loops.job_s);
    let run_p50 = p50(&runs.run_s);
    vec![
        metric("cpu.instructions", c.instructions as f64, "count"),
        metric("cpu.sim_cycles", c.sim_cycles as f64, "count"),
        metric("cpu.self_s", cpu_self_s, "s"),
        metric(
            "cpu.ns_per_instruction",
            cpu_self_s * 1e9 / c.instructions.max(1) as f64,
            "ns",
        ),
        metric("fault.inject_calls", c.inject_calls as f64, "count"),
        metric("fault.inject_calls_in_window", c.in_window as f64, "count"),
        metric("fault.faults_injected", c.faults as f64, "count"),
        metric("fault.bits_flipped", c.bits as f64, "count"),
        metric("fault.self_s", fault_self_s, "s"),
        metric(
            "fault.ns_per_inject",
            fault_self_s * 1e9 / c.inject_calls.max(1) as f64,
            "ns",
        ),
        metric(
            "fault.in_window_ratio",
            ratio(c.in_window, c.inject_calls),
            "ratio",
        ),
        metric(
            "fault.faulty_call_ratio",
            ratio(c.faults, c.in_window),
            "ratio",
        ),
        metric("core.trials", c.trials as f64, "count"),
        metric("core.finished_trials", c.finished as f64, "count"),
        metric("core.watchdog_trials", c.watchdog as f64, "count"),
        metric("core.golden_runs", c.golden_runs as f64, "count"),
        metric(
            "core.trial_s_p50",
            median_or_nan(&replays.trial_s) * replay_factor,
            "s",
        ),
        metric(
            "core.harness_self_s",
            rec.totals("trial").self_s / passes,
            "s",
        ),
        metric("core.golden_s", per_pass("core.golden"), "s"),
        metric("kernels.initialize_s", per_pass("kernels.initialize"), "s"),
        metric(
            "kernels.output_error_s",
            per_pass("kernels.output_error"),
            "s",
        ),
        metric("campaign.run_s", run_p50, "s"),
        metric("campaign.threads_used", runs.threads_used as f64, "count"),
        metric(
            "campaign.max_concurrent_trials",
            runs.max_concurrent as f64,
            "count",
        ),
        metric(
            "campaign.busy_ratio",
            median_or_nan(&runs.busy_ratio),
            "ratio",
        ),
        metric("campaign.overhead_s", p50(&runs.overhead_s), "s"),
        metric("campaign.first_cell_s", p50(&runs.first_cell_s), "s"),
        metric("serve.start_s", median_or_nan(&start_s.nominal), "s"),
        metric("serve.submit_s", p50(&loops.submit_s), "s"),
        metric("serve.cell_gap_s", p50(&loops.cell_gap_s), "s"),
        metric("serve.result_fetch_s", p50(&loops.fetch_s), "s"),
        metric("serve.poff_s", p50(&loops.poff_s), "s"),
        metric("serve.result_bytes", loops.result_bytes as f64, "bytes"),
        metric("serve.overhead_s", job_p50 - run_p50, "s"),
        metric(
            "serve.journal_appends",
            (appends / submitted) as f64,
            "count",
        ),
        metric(
            "serve.journal_appends_per_job",
            ratio(appends, submitted),
            "count",
        ),
        metric("serve.poff_cells_evaluated", p.poff_cells as f64, "count"),
        metric("trace.overhead_ratio", overhead, "ratio"),
    ]
}

fn digest_only(args: &Args) {
    let p = prepare(args);
    let pass = replay::replay_pass(&p.study, &p.spec, None);
    let mut tally = Tally::default();
    let mut lines = Vec::new();
    let d = check_outputs(args, &p, &pass, &mut tally, &mut lines);
    for line in &lines {
        eprintln!("{line}");
    }
    println!("{}\t{}\t{d:016x}", args.kind.name(), args.seed);
    if tally.failed > 0 {
        std::process::exit(1);
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.digest_only {
        digest_only(&args);
        return;
    }
    let mut lines = vec![format!(
        "perfbench workload={} seed={} (default {DEFAULT_SEED}, held-out {HELD_OUT_SEED}) seconds={} trace={} threads={}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    )];
    let mut tally = Tally::default();
    let mut cal = Calibration::default();
    let metrics = if args.trace {
        run_traced(&args, &mut lines, &mut tally, &mut cal)
    } else {
        run_untraced(&args, &mut lines, &mut tally, &mut cal)
    };
    lines.push(format!(
        "machine speed {:.4} of nominal (median of {} calibration slices); every time \
         below is at nominal speed: each sample times the speed of the slices nearest it",
        cal.run_factor(),
        cal.slices()
    ));
    let all_finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = tally.failed == 0 && all_finite;
    for line in &lines {
        println!("{line}");
    }
    for m in &metrics {
        println!(
            "{:32} {:>16} {:6} {}",
            m.name,
            format!("{:.6}", m.value),
            m.unit,
            m.note
        );
    }
    println!(
        "failed_fraction = {} ({} of {} jobs, requests, campaigns and checks failed)",
        tally.failed_fraction(),
        tally.failed,
        tally.attempted
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
