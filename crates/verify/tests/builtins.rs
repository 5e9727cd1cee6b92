//! Every built-in benchmark kernel must verify completely clean — zero
//! errors *and* zero warnings. This is the same bar CI enforces through
//! `sfi-lint`, expressed as a test so it fails close to the offending
//! kernel change.

use sfi_verify::{verify, VerifyConfig};

#[test]
fn all_builtin_kernels_verify_clean() {
    let suite = sfi_kernels::extended_suite(3);
    assert!(suite.len() >= 9, "expected the full workload zoo");
    for bench in &suite {
        let config = VerifyConfig::new(bench.dmem_words()).with_fi_window(bench.fi_window());
        let report = verify(bench.program(), &config);
        let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
        assert!(
            report.is_clean(),
            "kernel `{}` has findings:\n{}",
            bench.name(),
            rendered.join("\n")
        );
        assert!(report.reachable_instructions > 0);
        assert!(report.mix.total() == report.reachable_instructions as u64);
    }
}

#[test]
fn builtin_kernels_report_sensible_statistics() {
    for bench in sfi_kernels::extended_suite(3) {
        let config = VerifyConfig::new(bench.dmem_words()).with_fi_window(bench.fi_window());
        let report = verify(bench.program(), &config);
        // Every kernel iterates, so the watchdog estimate must defer to the
        // dynamic budget, and the mix must contain both compute and control.
        assert!(report.has_loops, "kernel `{}` should loop", bench.name());
        assert_eq!(report.max_straightline_cycles, None);
        assert!(report.mix.compute_fraction() > 0.0);
        assert!(report.mix.control_fraction() > 0.0);
        assert!(report.reachable_blocks >= 2);
    }
}
