//! The measured phases: closed loops of jobs and PoFF queries (in-process
//! or over the loopback daemon), single-thread cell passes, traced replay
//! passes and traced campaign runs.

use crate::calib::{Calibration, CpuClock};
use crate::replay::{self, Counts, Pass};
use crate::stats::Tally;
use crate::trace::Recorder;
use crate::workload::Workload;
use sfi_campaign::{
    adaptive_poff, CampaignEngine, CampaignResult, CampaignSpec, PoffOutcome, PoffSearch,
    TrialBudget,
};
use sfi_core::experiment::{derive_trial_seed, golden_cycles, watchdog_cycles, TrialContext};
use sfi_core::CaseStudy;
use sfi_fault::OperatingPoint;
use sfi_serve::client::Client;
use sfi_serve::protocol::{PoffReply, PoffRequest};
use sfi_serve::wire::CampaignDef;
use std::net::SocketAddr;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// When a time-bound loop stops: after `until`, once it holds `min`
/// samples, and in any case at `hard`.
#[derive(Debug, Clone, Copy)]
pub struct Until {
    /// The planned end of the phase.
    pub until: Instant,
    /// Samples the phase must collect.
    pub min: usize,
    /// The end even if `min` was not reached.
    pub hard: Instant,
}

impl Until {
    /// A phase of `seconds` from now that needs `min` samples and may run
    /// over by at most `grace` seconds to get them.
    pub fn new(seconds: f64, min: usize, grace: f64) -> Self {
        let now = Instant::now();
        Until {
            until: now + Duration::from_secs_f64(seconds.max(0.0)),
            min,
            hard: now + Duration::from_secs_f64((seconds + grace).max(0.0)),
        }
    }

    fn done(&self, samples: usize) -> bool {
        let now = Instant::now();
        (now >= self.until && samples >= self.min) || now >= self.hard
    }
}

/// What one PoFF answer is, compared bit for bit between paths: the PoFF,
/// the number of cells evaluated and every evaluated point's fractions.
pub type PoffKey = Vec<u64>;

/// The comparable form of an in-process PoFF outcome.
pub fn poff_key(outcome: &PoffOutcome) -> PoffKey {
    let mut key = vec![
        outcome.poff_mhz.map_or(u64::MAX, f64::to_bits),
        outcome.cells_evaluated as u64,
    ];
    for point in &outcome.evaluated {
        key.push(point.freq_mhz.to_bits());
        key.push(point.summary.correct_fraction().to_bits());
        key.push(point.summary.finished_fraction().to_bits());
    }
    key
}

/// The comparable form of a daemon PoFF reply.
pub fn reply_key(reply: &PoffReply) -> PoffKey {
    let mut key = vec![
        reply.poff_mhz.map_or(u64::MAX, f64::to_bits),
        reply.cells_evaluated as u64,
    ];
    for point in &reply.evaluated {
        key.push(point.freq_mhz.to_bits());
        key.push(point.correct_fraction.to_bits());
        key.push(point.finished_fraction.to_bits());
    }
    key
}

/// Runs one PoFF query in-process, as the daemon's `poff` handler does.
pub fn poff_in_process(engine: &CampaignEngine, study: &CaseStudy, q: &PoffRequest) -> PoffOutcome {
    let benchmark = q
        .benchmark
        .instantiate()
        .expect("workload recipes are valid");
    let search = PoffSearch {
        lo_mhz: q.lo_mhz,
        hi_mhz: q.hi_mhz,
        resolution_mhz: q.resolution_mhz,
        budget: TrialBudget::fixed(q.trials),
    };
    let base = OperatingPoint::new(q.lo_mhz, q.vdd).with_noise_sigma_mv(q.noise_sigma_mv);
    adaptive_poff(engine, study, benchmark, q.model, base, search, q.seed)
}

/// Whether two campaign results hold bit-identical cells.
pub fn same_campaign(a: &CampaignResult, b: &CampaignResult) -> bool {
    a.cells.len() == b.cells.len()
        && a.cells.iter().zip(&b.cells).all(|(x, y)| {
            x.stopped_early == y.stopped_early && replay::same_trials(&x.trials, &y.trials)
        })
}

/// Trials one PoFF answer ran.
fn poff_trials(q: &PoffRequest, cells: usize) -> u64 {
    (cells * q.trials) as u64
}

/// A measurement and when it started (which picks its speed factor).
pub type Sample = (Instant, f64);

/// Latency samples and throughput of a closed loop.
#[derive(Debug, Clone, Default)]
pub struct LoopStats {
    /// Submit (or call) → result, seconds.
    pub job_s: Vec<Sample>,
    /// Submit (or call) → first completed cell, seconds.
    pub first_cell_s: Vec<Sample>,
    /// PoFF request → reply, seconds.
    pub poff_s: Vec<Sample>,
    /// When the loop started.
    pub started: Option<Instant>,
    /// When each job ended, in order.
    pub job_ends: Vec<Instant>,
    /// Each completed job or query: when, and how many Monte-Carlo trials.
    pub completions: Vec<(Instant, u64)>,
    /// Wall seconds of the loop.
    pub wall_s: f64,
    /// Seconds of each `submit` call.
    pub submit_s: Vec<Sample>,
    /// Seconds between consecutive streamed cells.
    pub cell_gap_s: Vec<Sample>,
    /// Seconds of each `result` fetch.
    pub fetch_s: Vec<Sample>,
    /// Size of the result document, bytes.
    pub result_bytes: usize,
    /// Outcomes of every job and query.
    pub tally: Tally,
}

/// The in-process closed loop: one caller alternates a campaign job on
/// `CampaignEngine` (all CPUs) with the next PoFF query of the round.
/// Every job must equal `reference` and every answer the first answer to
/// the same query.
pub fn in_process_loop(
    study: &CaseStudy,
    w: &Workload,
    spec: &CampaignSpec,
    reference: &CampaignResult,
    poff_refs: &[PoffKey],
    until: Until,
    cal: &mut Calibration,
) -> LoopStats {
    let started = Instant::now();
    let mut stats = LoopStats {
        started: Some(started),
        ..LoopStats::default()
    };
    let mut i = 0usize;
    while !until.done(stats.job_s.len().min(stats.poff_s.len())) {
        cal.slice_if_due();
        let first = Arc::new(OnceLock::<Instant>::new());
        let hook_first = Arc::clone(&first);
        let engine = CampaignEngine::new().with_progress(Arc::new(move |_| {
            hook_first.get_or_init(Instant::now);
        }));
        let t0 = Instant::now();
        let result = engine.run(study, spec);
        let done = Instant::now();
        stats.job_s.push((t0, (done - t0).as_secs_f64()));
        stats
            .first_cell_s
            .push((t0, (*first.get().unwrap_or(&done) - t0).as_secs_f64()));
        stats.job_ends.push(done);
        stats
            .completions
            .push((done, result.metrics.executed_trials as u64));
        stats.tally.record(same_campaign(&result, reference));

        let q = &w.poffs[i % w.poffs.len()];
        let t0 = Instant::now();
        let outcome = poff_in_process(&CampaignEngine::new(), study, q);
        let answered = Instant::now();
        stats.poff_s.push((t0, (answered - t0).as_secs_f64()));
        stats
            .completions
            .push((answered, poff_trials(q, outcome.cells_evaluated)));
        stats
            .tally
            .record(poff_key(&outcome) == poff_refs[i % w.poffs.len()]);
        i += 1;
    }
    stats.wall_s = started.elapsed().as_secs_f64();
    stats
}

impl LoopStats {
    /// Appends the samples of a later slice of the same loop.
    fn merge(&mut self, o: LoopStats) {
        self.started = self.started.or(o.started);
        self.job_s.extend(o.job_s);
        self.first_cell_s.extend(o.first_cell_s);
        self.poff_s.extend(o.poff_s);
        self.job_ends.extend(o.job_ends);
        self.completions.extend(o.completions);
        self.wall_s += o.wall_s;
        self.submit_s.extend(o.submit_s);
        self.cell_gap_s.extend(o.cell_gap_s);
        self.fetch_s.extend(o.fetch_s);
        self.result_bytes = self.result_bytes.max(o.result_bytes);
        self.tally.merge(o.tally);
    }

    /// Monte-Carlo trials the loop completed.
    pub fn trials(&self) -> u64 {
        self.completions.iter().map(|&(_, n)| n).sum()
    }

    /// Trials per second in consecutive windows of `jobs_per_window` job
    /// iterations each, stamped with the window's start: every window
    /// repeats the same mix of work, so the median over windows ignores
    /// bursts of interference from other processes.
    pub fn window_rates(&self, jobs_per_window: usize) -> Vec<Sample> {
        let Some(started) = self.started else {
            return Vec::new();
        };
        let step = jobs_per_window.max(1);
        let mut rates = Vec::new();
        let mut from = started;
        let mut pending = self.completions.iter().peekable();
        for &end in self.job_ends.iter().skip(step - 1).step_by(step) {
            let mut trials = 0;
            while let Some(&&(at, n)) = pending.peek() {
                if at > end {
                    break;
                }
                trials += n;
                pending.next();
            }
            let seconds = (end - from).as_secs_f64();
            if seconds > 0.0 {
                rates.push((from, trials as f64 / seconds));
            }
            from = end;
        }
        rates
    }
}

/// Seconds of one slice of the served loops; a calibration slice runs
/// between slices, while the daemon has nothing in flight.
const SERVED_SLICE_S: f64 = 1.5;

/// Runs [`served_loops`] in slices until `until`, with a calibration slice
/// before each.
#[allow(clippy::too_many_arguments)]
pub fn served_sliced(
    addr: SocketAddr,
    w: &Workload,
    reference_doc: &str,
    poff_refs: &[PoffKey],
    until: Until,
    cal: &mut Calibration,
    mut job_rec: Option<&mut Recorder>,
    mut poff_rec: Option<&mut Recorder>,
) -> LoopStats {
    let mut total = LoopStats::default();
    while !until.done(total.job_s.len().min(total.poff_s.len())) {
        cal.slice();
        let slice = Until::new(SERVED_SLICE_S, 1, SERVED_SLICE_S);
        total.merge(served_loops(
            addr,
            w,
            reference_doc,
            poff_refs,
            slice,
            job_rec.as_deref_mut(),
            poff_rec.as_deref_mut(),
        ));
    }
    total
}

/// The served closed loops: one connection submits the workload's job,
/// streams its cells and fetches the result, one after another; a second
/// connection sends the round's PoFF queries one after another.  With
/// recorders, each client call is a span.
#[allow(clippy::too_many_arguments)]
fn served_loops(
    addr: SocketAddr,
    w: &Workload,
    reference_doc: &str,
    poff_refs: &[PoffKey],
    until: Until,
    job_rec: Option<&mut Recorder>,
    poff_rec: Option<&mut Recorder>,
) -> LoopStats {
    let started = Instant::now();
    let (jobs, poffs) = std::thread::scope(|scope| {
        let jobs = scope.spawn(|| job_loop(addr, &w.job, reference_doc, until, job_rec));
        let poffs = scope.spawn(|| poff_loop(addr, &w.poffs, poff_refs, until, poff_rec));
        (
            jobs.join().expect("job loop panicked"),
            poffs.join().expect("poff loop panicked"),
        )
    });
    let mut stats = jobs;
    stats.started = Some(started);
    stats.poff_s = poffs.poff_s;
    stats.completions.extend(poffs.completions);
    stats.completions.sort_by_key(|&(at, _)| at);
    stats.tally.merge(poffs.tally);
    stats.wall_s = started.elapsed().as_secs_f64();
    stats
}

fn job_loop(
    addr: SocketAddr,
    def: &CampaignDef,
    reference_doc: &str,
    until: Until,
    mut rec: Option<&mut Recorder>,
) -> LoopStats {
    let mut stats = LoopStats::default();
    let trials_per_job: u64 = def.cells.iter().map(|c| c.budget.max_trials as u64).sum();
    let Ok(mut client) = Client::connect(addr) else {
        stats.tally.record(false);
        return stats;
    };
    while !until.done(stats.job_s.len()) {
        let job_id = stats.tally.attempted;
        if let Some(r) = rec.as_deref_mut() {
            r.begin("serve.job", Some(("job", job_id)));
        }
        let t0 = Instant::now();
        let ticket = client.submit(def);
        let submitted = Instant::now();
        if let Some(r) = rec.as_deref_mut() {
            r.interval("serve.submit", t0, submitted, Some(("job", job_id)));
        }
        stats.submit_s.push((t0, (submitted - t0).as_secs_f64()));
        let Ok(ticket) = ticket else {
            // A refused submission counts as a failed job.
            if let Some(r) = rec.as_deref_mut() {
                r.end();
            }
            stats.tally.record(false);
            continue;
        };
        let mut first = None;
        let mut last = submitted;
        let mut gaps = Vec::new();
        let state = client.stream(ticket.job, |_cell| {
            let now = Instant::now();
            first.get_or_insert(now);
            gaps.push((last, now));
            last = now;
        });
        let fetch_start = Instant::now();
        let doc = client.result(ticket.job);
        let done = Instant::now();
        if let Some(r) = rec.as_deref_mut() {
            for &(from, to) in &gaps {
                r.interval("serve.cell_gap", from, to, Some(("job", job_id)));
            }
            r.interval(
                "serve.result_fetch",
                fetch_start,
                done,
                Some(("job", job_id)),
            );
            r.end();
        }
        stats.cell_gap_s.extend(
            gaps.iter()
                .map(|&(from, to)| (from, (to - from).as_secs_f64())),
        );
        stats
            .fetch_s
            .push((fetch_start, (done - fetch_start).as_secs_f64()));
        stats.job_s.push((t0, (done - t0).as_secs_f64()));
        stats
            .first_cell_s
            .push((t0, (first.unwrap_or(done) - t0).as_secs_f64()));
        let ok = match (&state, &doc) {
            (Ok(state), Ok(doc)) if state == "done" => {
                let text = doc.to_string();
                stats.result_bytes = text.len();
                text == reference_doc
            }
            _ => false,
        };
        stats.tally.record(ok);
        stats.job_ends.push(done);
        if ok {
            stats.completions.push((done, trials_per_job));
        }
    }
    stats
}

fn poff_loop(
    addr: SocketAddr,
    queries: &[PoffRequest],
    refs: &[PoffKey],
    until: Until,
    mut rec: Option<&mut Recorder>,
) -> LoopStats {
    let mut stats = LoopStats::default();
    let Ok(mut client) = Client::connect(addr) else {
        stats.tally.record(false);
        return stats;
    };
    let mut i = 0usize;
    while !until.done(stats.poff_s.len()) {
        let q = &queries[i % queries.len()];
        if let Some(r) = rec.as_deref_mut() {
            r.begin("serve.poff", Some(("request", i as u64)));
        }
        let t0 = Instant::now();
        let reply = client.poff(q);
        let answered = Instant::now();
        stats.poff_s.push((t0, (answered - t0).as_secs_f64()));
        if let Some(r) = rec.as_deref_mut() {
            r.end();
        }
        let ok = match &reply {
            Ok(reply) => {
                stats
                    .completions
                    .push((answered, poff_trials(q, reply.cells_evaluated)));
                reply_key(reply) == refs[i % queries.len()]
            }
            Err(_) => false,
        };
        stats.tally.record(ok);
        i += 1;
    }
    stats
}

/// Single-thread passes over every cell through `TrialContext::run_trial`,
/// the primitive the engine's workers call, at nominal machine speed.
/// Seconds are the passing thread's CPU seconds ([`CpuClock::thread`]).
#[derive(Debug, Clone, Default)]
pub struct CellPasses {
    /// Per cell, trials per second of each pass.
    pub rates: Vec<Vec<f64>>,
    /// Per cell, trials per second of each pass as measured, unscaled.
    pub raw_rates: Vec<Vec<f64>>,
    /// Per pass, summed seconds of all trials.
    pub pass_s: Vec<f64>,
    /// One record per pass: whether it equalled the reference.
    pub tally: Tally,
}

/// Runs cell passes until `until` on the calling thread; every pass must
/// reproduce `reference`.  The passes run alone: two at once, on two
/// virtual CPUs that may be hyperthreads of one core, slowed each other by
/// up to 40 % per CPU second, by a share that follows where the host placed
/// the virtual CPUs, not the program.  Cells and the calibration slice
/// before every cell are timed on a [`CpuClock::thread`], so a sample counts
/// only the time the thread ran and is scaled by the speed of the CPU it
/// ran on.
pub fn cell_passes(
    study: &CaseStudy,
    spec: &CampaignSpec,
    reference: &CampaignResult,
    until: Until,
) -> CellPasses {
    let watchdogs: Vec<u64> = spec
        .benchmarks()
        .iter()
        .map(|b| watchdog_cycles(golden_cycles(b.as_ref())))
        .collect();
    let clock = CpuClock::thread();
    let mut cal = Calibration::default();
    let mut rates: Vec<Vec<Sample>> = vec![Vec::new(); spec.cells().len()];
    let mut passes: Vec<Sample> = Vec::new();
    let mut tally = Tally::default();
    while !until.done(passes.len()) {
        let mut context = TrialContext::new();
        let mut ok = true;
        let pass_start = Instant::now();
        let mut pass_s = 0.0;
        for (index, cell) in spec.cells().iter().enumerate() {
            let benchmark = spec.benchmarks()[cell.benchmark].as_ref();
            cal.slice_here(&clock);
            let at = Instant::now();
            let t0 = clock.seconds();
            let trials: Vec<_> = (0..cell.budget.max_trials)
                .map(|t| {
                    context.run_trial(
                        study,
                        benchmark,
                        cell.benchmark,
                        cell.model,
                        cell.point,
                        watchdogs[cell.benchmark],
                        derive_trial_seed(spec.seed, index as u64, t as u64),
                    )
                })
                .collect();
            let dt = clock.seconds() - t0;
            pass_s += dt;
            rates[index].push((at, trials.len() as f64 / dt));
            ok &= replay::same_trials(&trials, &reference.cells[index].trials);
        }
        passes.push((pass_start, pass_s));
        tally.record(ok);
    }
    CellPasses {
        rates: rates
            .iter()
            .map(|r| r.iter().map(|&(at, v)| cal.rate(at, v)).collect())
            .collect(),
        raw_rates: rates
            .iter()
            .map(|r| r.iter().map(|&(_, v)| v).collect())
            .collect(),
        pass_s: passes.iter().map(|&(at, v)| cal.seconds(at, v)).collect(),
        tally,
    }
}

/// Traced replay passes until `until`.
#[derive(Debug, Clone, Default)]
pub struct ReplayPasses {
    /// The first pass (results and exact counts).
    pub first: Pass,
    /// Passes run.
    pub passes: usize,
    /// Host seconds of every replayed trial, all passes.
    pub trial_s: Vec<f64>,
    /// Per pass, summed seconds of all trials.
    pub pass_trial_s: Vec<Sample>,
    /// Summed seconds of the runs with the real fault model, all passes.
    pub run_s: f64,
    /// Summed seconds of the mask replays, all passes.
    pub masked_run_s: f64,
    /// Whether every pass reproduced the first one's counts and every
    /// mask replay reproduced its trial.
    pub repeatable: bool,
}

/// Replays the campaign with spans until `until`.
pub fn replay_passes(
    study: &CaseStudy,
    spec: &CampaignSpec,
    until: Until,
    rec: &mut Recorder,
    cal: &mut Calibration,
) -> ReplayPasses {
    let mut out = ReplayPasses {
        repeatable: true,
        ..ReplayPasses::default()
    };
    while !until.done(out.passes) {
        cal.slice_if_due();
        let pass_start = Instant::now();
        rec.begin("campaign.replay", Some(("pass", out.passes as u64)));
        let pass = replay::replay_pass(study, spec, Some(rec));
        rec.end();
        out.run_s += pass.run_s;
        out.masked_run_s += pass.masked_run_s;
        out.pass_trial_s
            .push((pass_start, pass.trial_s.iter().sum()));
        out.trial_s.extend_from_slice(&pass.trial_s);
        out.repeatable &= pass.masks_reproduce;
        if out.passes == 0 {
            out.first = pass;
        } else {
            out.repeatable &= pass.totals == out.first.totals;
        }
        out.passes += 1;
    }
    out
}

/// Traced direct campaign runs.
#[derive(Debug, Clone, Default)]
pub struct CampaignRuns {
    /// Wall seconds of each run.
    pub run_s: Vec<Sample>,
    /// Seconds to the first completed cell, each run.
    pub first_cell_s: Vec<Sample>,
    /// Σ worker busy time ÷ (run time × threads), each run.
    pub busy_ratio: Vec<f64>,
    /// Run time not covered by trials, per thread, each run.
    pub overhead_s: Vec<Sample>,
    /// Worker threads that ran trials (largest seen).
    pub threads_used: usize,
    /// Trials in flight at once (largest seen).
    pub max_concurrent: usize,
    /// Whether every run equalled the reference.
    pub tally: Tally,
}

/// Runs the campaign on `CampaignEngine` (all CPUs) until `until`.
pub fn campaign_runs(
    study: &CaseStudy,
    spec: &CampaignSpec,
    reference: &CampaignResult,
    until: Until,
    rec: &mut Recorder,
    cal: &mut Calibration,
) -> CampaignRuns {
    let mut out = CampaignRuns::default();
    let busy = &sfi_obs::metrics().engine_worker_busy_us;
    while !until.done(out.run_s.len()) {
        cal.slice_if_due();
        let first = Arc::new(OnceLock::<Instant>::new());
        let hook_first = Arc::clone(&first);
        let engine = CampaignEngine::new().with_progress(Arc::new(move |_| {
            hook_first.get_or_init(Instant::now);
        }));
        let busy_before = busy.get();
        let t0 = Instant::now();
        let result = engine.run(study, spec);
        let done = Instant::now();
        rec.interval(
            "campaign.run",
            t0,
            done,
            Some(("run", out.run_s.len() as u64)),
        );
        let run_s = (done - t0).as_secs_f64();
        let busy_s = busy.get().saturating_sub(busy_before) as f64 * 1e-6;
        let threads = engine.threads() as f64;
        out.run_s.push((t0, run_s));
        out.first_cell_s
            .push((t0, (*first.get().unwrap_or(&done) - t0).as_secs_f64()));
        out.busy_ratio.push(busy_s / (run_s * threads));
        out.overhead_s.push((t0, run_s - busy_s / threads));
        out.threads_used = out.threads_used.max(result.metrics.worker_threads_used);
        out.max_concurrent = out.max_concurrent.max(result.metrics.max_concurrent_trials);
        out.tally.record(same_campaign(&result, reference));
    }
    out
}

/// Exact counts of one `CampaignEngine::run`, read from the library's own
/// process-wide counters around the call.
pub fn counted_run(study: &CaseStudy, spec: &CampaignSpec) -> (CampaignResult, Counts) {
    let m = sfi_obs::metrics();
    let faults = || m.iss_faults.iter().map(|c| c.get()).sum::<u64>();
    let (trials0, watchdog0, faults0, cycles0) = (
        m.trials.get(),
        m.iss_watchdog_trips.get(),
        faults(),
        m.iss_cycles.get(),
    );
    let result = CampaignEngine::new().run(study, spec);
    let cycles1 = m.iss_cycles.get();
    let executed = result.metrics.executed_trials as u64;
    let mut counts = Counts {
        trials: executed,
        watchdog: m.iss_watchdog_trips.get() - watchdog0,
        faults: faults() - faults0,
        golden_runs: (m.trials.get() - trials0) - executed,
        ..Counts::default()
    };
    let golden_cycles_total: u64 = spec
        .benchmarks()
        .iter()
        .map(|b| golden_cycles(b.as_ref()))
        .sum();
    // The library's cycle counter also counts the golden runs: take them
    // out (golden_cycles is deterministic, so recomputing it is exact).
    counts.sim_cycles = (cycles1 - cycles0) - golden_cycles_total;
    for cell in &result.cells {
        counts.finished += cell.trials.iter().filter(|t| t.finished).count() as u64;
        counts.correct += cell.trials.iter().filter(|t| t.correct).count() as u64;
    }
    (result, counts)
}
