//! The lazy watchdog is exact.
//!
//! A trial whose limit is not yet known runs to
//! `WATCHDOG_FLOOR_CYCLES`, and only if it gets there resolves the limit
//! and continues on the same core and injector.  These oracles check that
//! this split run is the one run it replaces:
//!
//! * on the ISS, a run stopped at `M` and continued to `W` equals a run
//!   straight to `W` in outcome, cycles, registers, memory, `RunStats` and
//!   the injector's generator state, for `M` on both sides of multi-cycle
//!   instructions, with trials that end `Watchdog` past the floor;
//! * through `TrialContext`, a trial under a lazy `WatchdogSlot` equals the
//!   trial given the resolved limit up front, bit for bit.
//!
//! The trials that loop come from `TRAP`, a guest program whose loop
//! counter steps by two towards an even bound: a fault that makes the
//! counter odd sends it past the bound, around the 32-bit range, and into
//! the watchdog.

use sfi_core::experiment::{
    derive_trial_seed, golden_cycles, watchdog_cycles, FaultModel, TrialContext, TrialResult,
    WatchdogSlot, WATCHDOG_FLOOR_CYCLES,
};
use sfi_core::study::{CaseStudy, CaseStudyConfig};
use sfi_cpu::{Core, CpuState, FaultInjector, RunConfig, RunOutcome, RunStats};
use sfi_fault::OperatingPoint;
use sfi_kernels::guest::GuestProgramBenchmark;
use sfi_kernels::median::MedianBenchmark;
use sfi_kernels::Benchmark;
use std::fmt::Debug;

/// 3,000 iterations of five cycles: a 15,001-cycle golden run, so the
/// watchdog (120,008 cycles) lies above the floor.
const TRAP: &str = "
    .dmem 2
    .output 0:1
    l.addi  r2, r0, 6000
    l.addi  r1, r0, 0
loop:
    l.addi  r1, r1, 2
    l.sfne  r1, r2
    l.bf    loop        ; taken: three cycles
    l.sw    0(r0), r1
";

fn trap() -> GuestProgramBenchmark {
    let asm = sfi_asm::assemble(TRAP).expect("the trap assembles");
    let (lo, hi) = asm.resolved_fi_window();
    let (out_lo, out_hi) = asm.output.expect("the trap declares its output");
    GuestProgramBenchmark::new(
        asm.program.clone(),
        asm.resolved_dmem_words(2),
        lo..hi,
        asm.input.clone(),
        out_lo..out_hi,
    )
    .expect("the trap finishes without faults")
}

/// Everything a run leaves behind.
#[derive(Debug, PartialEq)]
struct Snapshot {
    outcome: RunOutcome,
    state: CpuState,
    memory: Vec<u32>,
    stats: RunStats,
    /// The injector's generator state, which fixes its next draw.
    rng: String,
}

/// The `rng: ...` member of an injector's `Debug` form.
fn rng_state(injector: &impl Debug) -> String {
    let text = format!("{injector:?}");
    let start = text
        .find("rng: ")
        .expect("the injector prints its generator");
    let end = start + text[start..].find('}').expect("the generator closes");
    text[start..=end].to_string()
}

/// Runs `bench` under `injector` up to each limit of `limits` in turn on
/// one core, continuing only after a `Watchdog` stop as the trial harness
/// does.  Returns the final snapshot and the cycles of the first stop.
fn split_run<F: FaultInjector + Debug>(
    bench: &dyn Benchmark,
    mut injector: F,
    limits: &[u64],
) -> (Snapshot, u64) {
    let mut core = Core::new(bench.program().clone(), bench.dmem_words());
    bench.initialize(core.memory_mut());
    let mut first_stop = None;
    let mut outcome = None;
    for &max_cycles in limits {
        let config = RunConfig {
            max_cycles,
            fi_window: Some(bench.fi_window()),
        };
        let stop = core.run_with_injector(&config, &mut injector);
        first_stop.get_or_insert(stop.cycles());
        let watchdog = matches!(stop, RunOutcome::Watchdog { .. });
        outcome = Some(stop);
        if !watchdog {
            break;
        }
    }
    let snapshot = Snapshot {
        outcome: outcome.expect("at least one limit"),
        state: core.state().clone(),
        memory: core.memory().words().to_vec(),
        stats: core.stats().clone(),
        rng: rng_state(&injector),
    };
    (snapshot, first_stop.expect("at least one limit"))
}

/// Stops around the start of the run, around the floor and at the limit:
/// consecutive values, so some fall inside a taken branch's three cycles.
fn stops(watchdog: u64) -> Vec<u64> {
    let mut stops: Vec<u64> = (1..=8).collect();
    stops.extend(WATCHDOG_FLOOR_CYCLES - 3..=WATCHDOG_FLOOR_CYCLES + 3);
    stops.push(watchdog);
    stops
}

#[test]
fn a_run_stopped_and_continued_equals_one_run() {
    let study = CaseStudy::build(CaseStudyConfig::fast_for_tests());
    let sta = study.sta_limit_mhz(0.7);
    let bench = trap();
    let watchdog = watchdog_cycles(golden_cycles(&bench));
    assert!(watchdog > WATCHDOG_FLOOR_CYCLES, "{watchdog}");
    let point = |scale: f64| OperatingPoint::new(sta * scale, 0.7).with_noise_sigma_mv(10.0);

    let (mut looped, mut overshot, mut landed) = (0, 0, 0);
    for trial in 0..6u64 {
        let seed = derive_trial_seed(5, 0, trial);
        let c = || study.model_c(point(1.15), seed);
        let b_plus = || study.model_b_plus(point(1.0), seed);
        let (reference_c, _) = split_run(&bench, c(), &[watchdog]);
        let (reference_b, _) = split_run(&bench, b_plus(), &[watchdog]);
        for reference in [&reference_c, &reference_b] {
            if matches!(reference.outcome, RunOutcome::Watchdog { .. }) {
                looped += 1;
            }
        }
        for stop in stops(watchdog) {
            let (split_c, first_c) = split_run(&bench, c(), &[stop, watchdog]);
            assert_eq!(split_c, reference_c, "model C, trial {trial}, stop {stop}");
            let (split_b, first_b) = split_run(&bench, b_plus(), &[stop, watchdog]);
            assert_eq!(split_b, reference_b, "model B+, trial {trial}, stop {stop}");
            for (first, reference) in [(first_c, &reference_c), (first_b, &reference_b)] {
                // Only stops the run actually reached say where it halts.
                if first < reference.stats.cycles {
                    if first > stop {
                        overshot += 1;
                    } else {
                        landed += 1;
                    }
                }
            }
        }
    }
    assert!(looped > 0, "some trial must end Watchdog past the floor");
    assert!(
        overshot > 0,
        "some stop must fall inside a multi-cycle instruction"
    );
    assert!(landed > 0, "some stop must fall on an instruction boundary");
}

fn assert_bit_identical(a: TrialResult, b: TrialResult, what: &str) {
    assert_eq!(a.finished, b.finished, "{what}");
    assert_eq!(a.correct, b.correct, "{what}");
    assert_eq!(a.cycles, b.cycles, "{what}");
    assert_eq!(a.output_error.to_bits(), b.output_error.to_bits(), "{what}");
    assert_eq!(
        a.fi_rate_per_kcycle.to_bits(),
        b.fi_rate_per_kcycle.to_bits(),
        "{what}"
    );
}

#[test]
fn a_lazy_watchdog_gives_the_eager_trial() {
    let study = CaseStudy::build(CaseStudyConfig::fast_for_tests());
    let sta = study.sta_limit_mhz(0.7);
    let point = |scale: f64| OperatingPoint::new(sta * scale, 0.7).with_noise_sigma_mv(10.0);
    // The trap under model C loops in some trials and finishes below the
    // floor in others; the long median runs past the floor on the
    // fault-free path (0.9 × STA) and on the per-cycle path.
    let cells: [(Box<dyn Benchmark>, FaultModel, OperatingPoint); 3] = [
        (Box::new(trap()), FaultModel::StatisticalDta, point(1.15)),
        (
            Box::new(MedianBenchmark::new(201, 3)),
            FaultModel::StatisticalDta,
            point(0.9),
        ),
        (
            Box::new(MedianBenchmark::new(201, 3)),
            FaultModel::StatisticalDta,
            point(1.0),
        ),
    ];
    let (mut below, mut past, mut looped) = (0, 0, 0);
    for (key, (bench, model, point)) in cells.iter().enumerate() {
        let eager = watchdog_cycles(golden_cycles(bench.as_ref()));
        let lazy = WatchdogSlot::lazy();
        let (mut lazy_context, mut eager_context) = (TrialContext::new(), TrialContext::new());
        for trial in 0..6u64 {
            let seed = derive_trial_seed(7, key as u64, trial);
            let resolved_before = lazy.get().is_some();
            let got = lazy_context.run_trial_with_watchdog(
                &study,
                bench.as_ref(),
                key,
                *model,
                *point,
                &lazy,
                seed,
            );
            let want =
                eager_context.run_trial(&study, bench.as_ref(), key, *model, *point, eager, seed);
            assert_bit_identical(got, want, &format!("cell {key}, trial {trial}"));
            if got.cycles < WATCHDOG_FLOOR_CYCLES {
                below += 1;
                // A trial that ends below the floor never needs the limit.
                assert_eq!(lazy.get().is_some(), resolved_before, "cell {key}");
            } else {
                past += 1;
                assert_eq!(lazy.get(), Some(eager), "cell {key}");
            }
            if got.cycles >= eager {
                looped += 1;
            }
        }
    }
    assert!(
        below > 0 && past > 0 && looped > 0,
        "{below} trials below the floor, {past} past it, {looped} at the watchdog"
    );
}
