//! Sync test for `docs/prometheus/sfi-alerts.rules.yml`.
//!
//! The daemon's alert rules are a Prometheus rules file evaluated against
//! the `/metrics` exposition, so a renamed or retyped family would
//! silently turn an alert off.  This test reads every `expr:` line with
//! plain string parsing and checks each `sfi_*` family it names against
//! the registry: the family must exist, and a family read through
//! `rate()`/`irate()`/`increase()` must be a counter.

use sfi_obs::{FamilyKind, Snapshot};
use std::path::PathBuf;

fn rules_file() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../docs/prometheus/sfi-alerts.rules.yml");
    std::fs::read_to_string(&path)
        .unwrap_or_else(|err| panic!("cannot read {}: {err}", path.display()))
}

/// The PromQL expressions of the file, one per `expr:` line.
fn expressions(rules: &str) -> Vec<String> {
    rules
        .lines()
        .filter_map(|line| line.trim().strip_prefix("expr:"))
        .map(|expr| expr.trim().to_string())
        .collect()
}

/// Every `sfi_*` metric name in `expr`, with whether it is the argument
/// of a range function that only makes sense on counters.
fn family_refs(expr: &str) -> Vec<(String, bool)> {
    let is_name = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == ':';
    let mut refs = Vec::new();
    let mut rest = expr;
    while let Some(at) = rest.find("sfi_") {
        let before = &expr[..expr.len() - rest.len() + at];
        let name: String = rest[at..].chars().take_while(|&c| is_name(c)).collect();
        rest = &rest[at + name.len()..];
        if before.ends_with(is_name) {
            continue; // inside a longer identifier
        }
        let head = before.trim_end();
        let in_rate = ["rate(", "increase("]
            .iter()
            .any(|function| head.ends_with(function));
        refs.push((name, in_rate));
    }
    refs
}

/// The kind of the registry family exposing `name`, accepting the
/// `_bucket`/`_sum`/`_count` series of a histogram (which are counters).
fn kind_of(snapshot: &Snapshot, name: &str) -> Option<FamilyKind> {
    let family = |name: &str| snapshot.families.iter().find(|f| f.name == name);
    if let Some(family) = family(name) {
        return Some(family.kind);
    }
    ["_bucket", "_sum", "_count"].iter().find_map(|suffix| {
        let base = family(name.strip_suffix(suffix)?)?;
        (base.kind == FamilyKind::Histogram).then_some(FamilyKind::Counter)
    })
}

#[test]
fn every_rule_expression_names_registered_families_of_the_right_kind() {
    let rules = rules_file();
    let exprs = expressions(&rules);
    for alert in ["scheduler_queue_saturated", "event_ring_dropping"] {
        assert!(
            rules.contains(&format!("alert: {alert}")),
            "the rules file must define the {alert} alert"
        );
    }
    assert_eq!(exprs.len(), 2, "one expr per alert: {exprs:?}");

    let snapshot = sfi_obs::metrics().snapshot();
    for expr in &exprs {
        let refs = family_refs(expr);
        assert!(!refs.is_empty(), "expr names no sfi_* family: {expr}");
        for (name, in_rate) in refs {
            let kind = kind_of(&snapshot, &name).unwrap_or_else(|| {
                panic!("expr `{expr}` names {name}, which the registry does not export")
            });
            if in_rate {
                assert_eq!(
                    kind,
                    FamilyKind::Counter,
                    "expr `{expr}` takes the rate of {name}, which is not a counter"
                );
            }
        }
    }
}

#[test]
fn family_refs_find_names_and_rate_arguments() {
    assert_eq!(
        family_refs("sum(sfi_a) > 8"),
        vec![("sfi_a".to_string(), false)]
    );
    assert_eq!(
        family_refs("rate(sfi_b_total[1m]) > irate( sfi_c{x=\"y\"}[5m]) + xsfi_d"),
        vec![
            ("sfi_b_total".to_string(), true),
            ("sfi_c".to_string(), true)
        ]
    );
}
